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

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
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

/// The value after the flag at `args[*i]`, moving `i` onto it.
fn value(args: &[String], i: &mut usize) -> Result<String, String> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// [`value`] parsed as a number; a parse error names the flag.
fn number<T: FromStr>(args: &[String], i: &mut usize) -> Result<T, String>
where
    T::Err: Display,
{
    let flag = &args[*i];
    value(args, i)?.parse().map_err(|e| format!("{flag}: {e}"))
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
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--addr" => config.addr = value(args, &mut i)?,
            "--max-connections" => config.max_connections = number(args, &mut i)?,
            "--max-active-statements" => config.max_active_statements = number(args, &mut i)?,
            "--queue-depth" => config.statement_queue_depth = number(args, &mut i)?,
            "--queue-wait-ms" => config.queue_wait = Duration::from_millis(number(args, &mut i)?),
            "--statement-timeout-ms" => config.statement_timeout_ms = number(args, &mut i)?,
            "--memory-budget-mb" => config.memory_budget_mb = number(args, &mut i)?,
            "--slow-query-ms" => config.slow_query_ms = number(args, &mut i)?,
            "--metrics-addr" => config.metrics_addr = Some(value(args, &mut i)?),
            "--drain-timeout-ms" => {
                config.drain_timeout = Duration::from_millis(number(args, &mut i)?)
            }
            "--data-dir" => data_dir = Some(value(args, &mut i)?),
            "--archive-dir" => archive_dir = Some(value(args, &mut i)?),
            "--restore-from" => restore_from = Some(value(args, &mut i)?),
            "--to-lsn" => to_lsn = Some(number(args, &mut i)?),
            "--sync-mode" => {
                sync_mode = match value(args, &mut i)?.as_str() {
                    "commit" => SyncMode::Commit,
                    "buffered" => SyncMode::Buffered,
                    other => return Err(format!("--sync-mode: '{other}' (commit|buffered)")),
                }
            }
            "--buffer-pool-mb" => {
                buffer_pool_mb = number(args, &mut i)?;
                if buffer_pool_mb == 0 {
                    return Err("--buffer-pool-mb must be at least 1".into());
                }
            }
            "--replica-of" => replica_of = Some(value(args, &mut i)?),
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// Reads back the field a flag sets, as a `u64`.
    type Field = fn(&Cli) -> u64;

    /// Every numeric flag with the field it sets.
    const NUMERIC: [(&str, Field); 10] = [
        ("--max-connections", |c| c.config.max_connections as u64),
        ("--max-active-statements", |c| {
            c.config.max_active_statements as u64
        }),
        ("--queue-depth", |c| c.config.statement_queue_depth as u64),
        ("--queue-wait-ms", |c| {
            c.config.queue_wait.as_millis() as u64
        }),
        ("--statement-timeout-ms", |c| c.config.statement_timeout_ms),
        ("--memory-budget-mb", |c| c.config.memory_budget_mb),
        ("--slow-query-ms", |c| c.config.slow_query_ms),
        ("--drain-timeout-ms", |c| {
            c.config.drain_timeout.as_millis() as u64
        }),
        ("--to-lsn", |c| c.to_lsn.unwrap_or(0)),
        ("--buffer-pool-mb", |c| c.buffer_pool_mb as u64),
    ];

    #[test]
    fn numeric_flags_parse_and_name_themselves_in_errors() {
        // `--to-lsn` needs a restore; the base is valid for every flag.
        let base = ["--data-dir", "d", "--restore-from", "b"];
        for (flag, field) in NUMERIC {
            let with = |v: &str| parse(&[&base[..], &[flag, v]].concat());
            assert_eq!(with("7").map(|c| field(&c)), Ok(7), "{flag}");
            for (bad, why) in [
                ("x", "invalid digit found in string"),
                ("-1", "invalid digit found in string"),
                ("1.5", "invalid digit found in string"),
                ("", "cannot parse integer from empty string"),
                (
                    "99999999999999999999",
                    "number too large to fit in target type",
                ),
            ] {
                assert_eq!(
                    with(bad).err(),
                    Some(format!("{flag}: {why}")),
                    "{flag} {bad:?}"
                );
            }
            let missing = parse(&[&base[..], &[flag]].concat());
            assert_eq!(missing.err(), Some(format!("{flag} requires a value")));
        }
    }

    #[test]
    fn other_flags_and_rules_keep_their_messages() {
        for (args, want) in [
            (
                &["--buffer-pool-mb", "0"][..],
                "--buffer-pool-mb must be at least 1",
            ),
            (
                &["--sync-mode", "fast"],
                "--sync-mode: 'fast' (commit|buffered)",
            ),
            (&["--bogus"], "unknown flag '--bogus' (try --help)"),
            (&["--addr"], "--addr requires a value"),
            (
                &["--replica-of", "p:1"],
                "--replica-of requires --data-dir (the replica persists the stream)",
            ),
            (
                &["--to-lsn", "3"],
                "--to-lsn requires --restore-from (it bounds the restore replay)",
            ),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(want), "{args:?}");
        }
        let cli = parse(&["--addr", "0.0.0.0:1", "--sync-mode", "buffered", "--demo"]).unwrap();
        assert_eq!(cli.config.addr, "0.0.0.0:1");
        assert!(matches!(cli.sync_mode, SyncMode::Buffered) && cli.demo);
        let defaults = parse(&[]).unwrap();
        assert_eq!(
            (
                defaults.config.addr.as_str(),
                defaults.buffer_pool_mb,
                defaults.to_lsn
            ),
            ("127.0.0.1:5433", 64, None)
        );
    }
}
