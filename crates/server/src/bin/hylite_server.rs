//! `hylite-server` — serve a HyLite database over TCP.
//!
//! ```text
//! hylite-server [--addr 127.0.0.1:5433] [--data-dir PATH]
//!               [--archive-dir PATH] [--restore-from PATH] [--to-lsn N]
//!               [--sync-mode commit|buffered] [--buffer-pool-mb MB]
//!               [--max-connections N]
//!               [--max-active-statements N] [--queue-depth N]
//!               [--queue-wait-ms MS] [--statement-timeout-ms MS]
//!               [--memory-budget-mb MB] [--drain-timeout-ms MS]
//!               [--slow-query-ms MS] [--metrics-addr HOST:PORT]
//!               [--replica-of HOST:PORT] [--promote] [--demo]
//! ```
//!
//! `--metrics-addr HOST:PORT` serves the engine's metrics in Prometheus
//! text format at `GET /metrics`; `--slow-query-ms MS` makes every
//! session log statements slower than MS to `hylite.slow_queries`. See
//! `docs/OBSERVABILITY.md`.
//!
//! `--data-dir PATH` makes the database durable: recovery (checkpoint +
//! WAL replay) runs before the listener binds, every commit is logged to
//! the WAL before acknowledgement, and graceful shutdown takes a final
//! checkpoint. Without it the database is purely in-memory.
//!
//! `--archive-dir PATH` (requires `--data-dir`) turns on continuous WAL
//! archiving: every checkpoint copies the WAL frames it is about to
//! truncate into CRC-verified span files under PATH before the WAL is
//! reset. Archiving failures are reported via metrics but never block
//! commits. `--restore-from PATH` restores an online backup (see
//! `BACKUP TO` and `hylite-cli --backup`) into `--data-dir` before
//! opening it — optionally replaying archived WAL up to `--to-lsn N`
//! for point-in-time recovery. The restored node starts under a fresh
//! replication epoch, so stale replicas of the old timeline refuse to
//! follow it. See `docs/BACKUP.md`.
//!
//! `--buffer-pool-mb MB` caps the block cache in front of checkpointed
//! column segments (default 64). Cold data past the cap is re-read from
//! disk on demand, so a durable database can serve tables larger than
//! the cap — see `docs/STORAGE.md`.
//!
//! `--replica-of HOST:PORT` (requires `--data-dir`) starts a **read
//! replica**: the data dir is opened in the replica role, the primary's
//! WAL is streamed into it, and every session is read-only (writes get a
//! retryable error naming the primary). `--promote` restarts a replica
//! data dir as a writable primary under a fresh epoch — planned failover
//! after the old primary is confirmed dead. See `docs/REPLICATION.md`.
//!
//! `--demo` preloads a small demo schema (`t(x BIGINT)`, `edges(src,
//! dest)`) so a fresh server answers example queries immediately. The
//! process runs until a client sends a Shutdown frame (`hylite-cli
//! --shutdown`), then drains gracefully.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hylite_core::{Database, DurabilityOptions, ReplRole, SyncMode};
use hylite_server::{Replica, ReplicaConfig, Server, ServerConfig};

struct Cli {
    config: ServerConfig,
    demo: bool,
    data_dir: Option<String>,
    archive_dir: Option<String>,
    restore_from: Option<String>,
    to_lsn: Option<u64>,
    sync_mode: SyncMode,
    buffer_pool_mb: usize,
    replica_of: Option<String>,
    promote: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:5433".into(),
        ..ServerConfig::default()
    };
    let mut demo = false;
    let mut data_dir = None;
    let mut archive_dir = None;
    let mut restore_from = None;
    let mut to_lsn = None;
    let mut sync_mode = SyncMode::Commit;
    let mut buffer_pool_mb = 64usize;
    let mut replica_of = None;
    let mut promote = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--addr" => config.addr = value(&mut i, arg)?,
            "--max-connections" => {
                config.max_connections = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?
            }
            "--max-active-statements" => {
                config.max_active_statements = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?
            }
            "--queue-depth" => {
                config.statement_queue_depth = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?
            }
            "--queue-wait-ms" => {
                config.queue_wait = Duration::from_millis(
                    value(&mut i, arg)?
                        .parse()
                        .map_err(|e| format!("{arg}: {e}"))?,
                )
            }
            "--statement-timeout-ms" => {
                config.statement_timeout_ms = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?
            }
            "--memory-budget-mb" => {
                config.memory_budget_mb = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?
            }
            "--slow-query-ms" => {
                config.slow_query_ms = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?
            }
            "--metrics-addr" => config.metrics_addr = Some(value(&mut i, arg)?),
            "--drain-timeout-ms" => {
                config.drain_timeout = Duration::from_millis(
                    value(&mut i, arg)?
                        .parse()
                        .map_err(|e| format!("{arg}: {e}"))?,
                )
            }
            "--data-dir" => data_dir = Some(value(&mut i, arg)?),
            "--archive-dir" => archive_dir = Some(value(&mut i, arg)?),
            "--restore-from" => restore_from = Some(value(&mut i, arg)?),
            "--to-lsn" => {
                to_lsn = Some(
                    value(&mut i, arg)?
                        .parse::<u64>()
                        .map_err(|e| format!("{arg}: {e}"))?,
                )
            }
            "--sync-mode" => {
                sync_mode = match value(&mut i, arg)?.as_str() {
                    "commit" => SyncMode::Commit,
                    "buffered" => SyncMode::Buffered,
                    other => return Err(format!("--sync-mode: '{other}' (commit|buffered)")),
                }
            }
            "--buffer-pool-mb" => {
                buffer_pool_mb = value(&mut i, arg)?
                    .parse()
                    .map_err(|e| format!("{arg}: {e}"))?;
                if buffer_pool_mb == 0 {
                    return Err("--buffer-pool-mb must be at least 1".into());
                }
            }
            "--replica-of" => replica_of = Some(value(&mut i, arg)?),
            "--promote" => promote = true,
            "--demo" => demo = true,
            "--help" | "-h" => {
                return Err("usage: hylite-server [--addr HOST:PORT] [--data-dir PATH] \
                            [--archive-dir PATH] [--restore-from PATH] [--to-lsn N] \
                            [--sync-mode commit|buffered] [--buffer-pool-mb MB] \
                            [--max-connections N] \
                            [--max-active-statements N] [--queue-depth N] [--queue-wait-ms MS] \
                            [--statement-timeout-ms MS] [--memory-budget-mb MB] \
                            [--drain-timeout-ms MS] [--slow-query-ms MS] \
                            [--metrics-addr HOST:PORT] [--replica-of HOST:PORT] [--promote] \
                            [--demo]"
                    .into())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
        i += 1;
    }
    if replica_of.is_some() && data_dir.is_none() {
        return Err("--replica-of requires --data-dir (the replica persists the stream)".into());
    }
    if archive_dir.is_some() && data_dir.is_none() {
        return Err("--archive-dir requires --data-dir (there is no WAL to archive)".into());
    }
    if restore_from.is_some() && data_dir.is_none() {
        return Err("--restore-from requires --data-dir (the restore target)".into());
    }
    if to_lsn.is_some() && restore_from.is_none() {
        return Err("--to-lsn requires --restore-from (it bounds the restore replay)".into());
    }
    if restore_from.is_some() && replica_of.is_some() {
        return Err(
            "--restore-from starts a fresh-epoch primary; a replica follows its own primary".into(),
        );
    }
    if replica_of.is_some() && promote {
        return Err(
            "--promote starts a *primary* from a replica data dir; drop --replica-of".into(),
        );
    }
    if replica_of.is_some() && demo {
        return Err("--demo writes; a replica is read-only".into());
    }
    Ok(Cli {
        config,
        demo,
        data_dir,
        archive_dir,
        restore_from,
        to_lsn,
        sync_mode,
        buffer_pool_mb,
        replica_of,
        promote,
    })
}

fn load_demo(db: &Database) {
    for sql in [
        "CREATE TABLE t (x BIGINT)",
        "INSERT INTO t VALUES (1), (2), (3), (4), (5)",
        "CREATE TABLE edges (src BIGINT, dest BIGINT)",
        "INSERT INTO edges VALUES (1,2),(2,3),(3,4),(4,1),(1,3)",
    ] {
        if let Err(e) = db.execute(sql) {
            eprintln!("demo load failed on '{sql}': {e}");
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // Recovery runs to completion before the listener binds: no client
    // can observe a partially recovered database.
    let db = match &cli.data_dir {
        Some(dir) => {
            let vfs = Arc::new(hylite_common::StdVfs) as Arc<dyn hylite_common::Vfs>;
            if let Some(backup) = &cli.restore_from {
                match hylite_core::restore_backup(
                    &vfs,
                    std::path::Path::new(backup),
                    cli.archive_dir.as_deref().map(std::path::Path::new),
                    std::path::Path::new(dir),
                    cli.to_lsn,
                ) {
                    Ok(summary) => println!("restored {dir} from {backup}: {}", summary.summary()),
                    Err(e) => {
                        eprintln!("failed to restore '{backup}' into '{dir}': {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            let options = DurabilityOptions {
                sync_mode: cli.sync_mode,
                buffer_pool_bytes: cli.buffer_pool_mb * 1024 * 1024,
                role: if cli.replica_of.is_some() {
                    ReplRole::Replica
                } else {
                    ReplRole::Primary
                },
                promote: cli.promote,
                archive_dir: cli.archive_dir.as_ref().map(std::path::PathBuf::from),
            };
            match Database::open_with(vfs, std::path::Path::new(dir), options) {
                Ok(db) => {
                    if let Some(report) = db.recovery_report() {
                        println!("recovered {dir}: {}", report.summary());
                    }
                    Arc::new(db)
                }
                Err(e) => {
                    eprintln!("failed to open data dir '{dir}': {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => Arc::new(Database::new()),
    };
    if cli.demo {
        load_demo(&db);
    }
    if let Some(primary) = cli.replica_of {
        let handle = match Replica::start(db, cli.config, ReplicaConfig::new(primary.clone())) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("failed to start replica: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "hylite-server (replica of {primary}) listening on {}",
            handle.local_addr()
        );
        if let Some(m) = handle.metrics_addr() {
            println!("metrics on http://{m}/metrics");
        }
        // The serving side stops on a Shutdown frame or when catch-up
        // fails permanently; either way, stop following and exit.
        handle.join();
        println!("hylite-server (replica) stopped");
        return ExitCode::SUCCESS;
    }
    let handle = match Server::start(cli.config, db) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("hylite-server listening on {}", handle.local_addr());
    if let Some(m) = handle.metrics_addr() {
        println!("metrics on http://{m}/metrics");
    }
    handle.join();
    println!("hylite-server stopped");
    ExitCode::SUCCESS
}
