//! `hylite-cli` — interactive REPL and one-shot client for hylite-server.
//!
//! ```text
//! hylite-cli [--addr 127.0.0.1:5433]              # REPL
//! hylite-cli --execute "SELECT 1 + 1"             # one statement, print, exit
//! hylite-cli --shutdown                           # graceful server shutdown
//! hylite-cli --backup DIR [--backup-base B] [--verify]  # online backup
//! hylite-cli --addr P --replicas R1,R2            # routed: reads spread over replicas
//! ```
//!
//! With `--replicas`, the CLI speaks through [`HyliteRouter`]: writes go
//! to `--addr` (the primary), reads round-robin across the replicas
//! under the chosen `--consistency` mode (`session`, the default,
//! guarantees read-your-own-writes; `any-replica` allows bounded
//! staleness), and a dead primary triggers automatic promotion of the
//! most caught-up replica unless `--no-failover` is given.
//!
//! In the REPL, statements end with `;` (possibly spanning lines);
//! `\q` quits, `\cancelinfo` prints the session id/secret usable with an
//! out-of-band cancel connection, `\metrics` dumps the server's metrics
//! (`hylite.metrics`), `\lag` shows replication progress
//! (`hylite.replication`), and `\route` shows where the router sent the
//! last statement plus its fleet counters.

use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Instant;

use hylite_client::{
    request_backup, request_shutdown, Consistency, HyliteClient, HyliteRouter, RemoteResult,
    RouterConfig,
};

struct Args {
    addr: String,
    replicas: Vec<String>,
    consistency: Consistency,
    no_failover: bool,
    execute: Option<String>,
    shutdown: bool,
    backup: Option<String>,
    backup_base: Option<String>,
    verify: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        addr: "127.0.0.1:5433".into(),
        replicas: Vec::new(),
        consistency: Consistency::Session,
        no_failover: false,
        execute: None,
        shutdown: false,
        backup: None,
        backup_base: None,
        verify: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                parsed.addr = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--addr requires a value".to_string())?;
            }
            "--replicas" => {
                i += 1;
                let list = args
                    .get(i)
                    .cloned()
                    .ok_or_else(|| "--replicas requires HOST:PORT[,HOST:PORT...]".to_string())?;
                parsed
                    .replicas
                    .extend(list.split(',').filter(|s| !s.is_empty()).map(String::from));
            }
            "--consistency" => {
                i += 1;
                parsed.consistency = match args.get(i).map(String::as_str) {
                    Some("session") => Consistency::Session,
                    Some("any-replica") => Consistency::AnyReplica,
                    other => {
                        return Err(format!(
                            "--consistency must be 'session' or 'any-replica', got {other:?}"
                        ))
                    }
                };
            }
            "--no-failover" => parsed.no_failover = true,
            "--execute" | "-e" => {
                i += 1;
                parsed.execute = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| "--execute requires a SQL string".to_string())?,
                );
            }
            "--shutdown" => parsed.shutdown = true,
            "--backup" => {
                i += 1;
                parsed.backup = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| "--backup requires a server-side directory".to_string())?,
                );
            }
            "--backup-base" => {
                i += 1;
                parsed.backup_base =
                    Some(args.get(i).cloned().ok_or_else(|| {
                        "--backup-base requires a server-side directory".to_string()
                    })?);
            }
            "--verify" => parsed.verify = true,
            "--help" | "-h" => {
                return Err(
                    "usage: hylite-cli [--addr HOST:PORT] [--replicas HOST:PORT,...] \
                     [--consistency session|any-replica] [--no-failover] \
                     [--execute SQL] [--shutdown] \
                     [--backup DIR [--backup-base DIR] [--verify]]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
        i += 1;
    }
    Ok(parsed)
}

/// One connection, direct or routed — the REPL doesn't care which.
enum Conn {
    Single(HyliteClient),
    Routed(Box<HyliteRouter>),
}

impl Conn {
    fn query(&mut self, sql: &str) -> hylite_common::Result<RemoteResult> {
        match self {
            Conn::Single(c) => c.query(sql),
            Conn::Routed(r) => r.query(sql),
        }
    }

    fn error_code(&self) -> Option<u16> {
        match self {
            Conn::Single(c) => c.last_error_code().map(|c| c.as_u16()),
            Conn::Routed(_) => None,
        }
    }
}

fn run_one(conn: &mut Conn, sql: &str) -> bool {
    let started = Instant::now();
    match conn.query(sql) {
        Ok(result) => {
            let elapsed = started.elapsed();
            if !result.schema.is_empty() {
                print!("{}", result.to_table_string());
                println!(
                    "({} row{}, {:.1} ms)",
                    result.row_count(),
                    if result.row_count() == 1 { "" } else { "s" },
                    elapsed.as_secs_f64() * 1e3
                );
            } else {
                println!(
                    "OK, {} row{} affected ({:.1} ms)",
                    result.rows_affected,
                    if result.rows_affected == 1 { "" } else { "s" },
                    elapsed.as_secs_f64() * 1e3
                );
            }
            true
        }
        Err(e) => {
            match conn.error_code() {
                Some(code) => eprintln!("error [{code}]: {e}"),
                None => eprintln!("error: {e}"),
            }
            false
        }
    }
}

/// `\lag` — replication progress. Every server reports at least one row
/// (a standalone node says so explicitly), so there is no empty case.
fn show_lag(conn: &mut Conn) {
    match conn.query("SELECT * FROM hylite.replication") {
        Ok(result) => {
            print!("{}", result.to_table_string());
            println!("({} rows)", result.row_count());
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn show_route(conn: &Conn) {
    match conn {
        Conn::Single(_) => println!("not routed (single connection; use --replicas)"),
        Conn::Routed(r) => {
            match r.last_route() {
                Some(route) => println!("last statement: {route}"),
                None => println!("no statement routed yet"),
            }
            println!(
                "primary {}  replicas [{}]  consistency {}",
                r.primary_addr(),
                r.replica_addrs().join(", "),
                r.consistency()
            );
            let s = r.stats();
            println!(
                "writes {}  replica reads {}  primary reads {} ({} fallbacks)  \
                 probes {}  ejections {}  failovers {}",
                s.writes,
                s.reads_replica,
                s.reads_primary,
                s.primary_fallbacks,
                s.probes,
                s.ejections,
                s.failovers
            );
        }
    }
}

fn repl(conn: &mut Conn) {
    match conn {
        Conn::Single(c) => println!("hylite-cli connected (session {})", c.session_id()),
        Conn::Routed(r) => println!(
            "hylite-cli routed: primary {}, {} replica(s), {} consistency",
            r.primary_addr(),
            r.replica_addrs().len(),
            r.consistency()
        ),
    }
    println!("statements end with ';' — \\q quits, \\? lists meta-commands");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    loop {
        print!(
            "{}",
            if buffer.is_empty() {
                "hylite> "
            } else {
                "   ...> "
            }
        );
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if buffer.is_empty() {
            match trimmed {
                "" => continue,
                "\\q" | "exit" | "quit" => break,
                "\\cancelinfo" => {
                    match conn {
                        Conn::Single(c) => println!("{:?}", c.cancel_handle()),
                        Conn::Routed(_) => {
                            println!("\\cancelinfo is per-connection; not available when routed")
                        }
                    }
                    continue;
                }
                // Meta-commands over the system views: plain SQL under the
                // hood, so they work against any server (including replicas).
                "\\metrics" => {
                    run_one(conn, "SELECT * FROM hylite.metrics");
                    continue;
                }
                "\\lag" => {
                    show_lag(conn);
                    continue;
                }
                "\\route" => {
                    show_route(conn);
                    continue;
                }
                "\\backups" => {
                    run_one(conn, "SELECT * FROM hylite.backups");
                    continue;
                }
                "\\help" | "\\?" => {
                    println!(
                        "\\q quit  \\cancelinfo cancel credentials  \
                         \\metrics server metrics  \\lag replication status  \
                         \\route router status  \\backup DIR [FROM BASE] [VERIFY] online backup  \
                         \\backups last backup + archive state"
                    );
                    continue;
                }
                cmd if cmd.starts_with("\\backup ") => {
                    // `\backup DIR [FROM BASE] [VERIFY]` — sugar over the
                    // BACKUP SQL statement, so it works routed or direct.
                    let mut rest: Vec<&str> = cmd["\\backup ".len()..].split_whitespace().collect();
                    let verify = rest
                        .last()
                        .is_some_and(|w| w.eq_ignore_ascii_case("verify"));
                    if verify {
                        rest.pop();
                    }
                    let sql = match rest.as_slice() {
                        [dir] => Some(format!("BACKUP TO '{dir}'")),
                        [dir, from, base] if from.eq_ignore_ascii_case("from") => {
                            Some(format!("BACKUP TO '{dir}' FROM '{base}'"))
                        }
                        _ => None,
                    };
                    match sql {
                        Some(mut sql) => {
                            if verify {
                                sql.push_str(" VERIFY");
                            }
                            run_one(conn, &sql);
                        }
                        None => eprintln!("usage: \\backup DIR [FROM BASE] [VERIFY]"),
                    }
                    continue;
                }
                _ => {}
            }
        }
        buffer.push_str(&line);
        if trimmed.ends_with(';') {
            let sql = std::mem::take(&mut buffer);
            run_one(conn, sql.trim().trim_end_matches(';'));
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.shutdown {
        return match request_shutdown(&args.addr) {
            Ok(()) => {
                println!("shutdown requested");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(dir) = &args.backup {
        return match request_backup(&args.addr, dir, args.backup_base.as_deref(), args.verify) {
            Ok(report) => {
                println!(
                    "backup complete: lsn {}, {} segments copied, {} bytes",
                    report.lsn, report.segments, report.bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("backup failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut conn = if args.replicas.is_empty() {
        match HyliteClient::connect(&args.addr) {
            Ok(c) => Conn::Single(c),
            Err(e) => {
                eprintln!("connect to {} failed: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        }
    } else {
        let config = RouterConfig::new(&args.addr)
            .replicas(args.replicas.clone())
            .consistency(args.consistency)
            .auto_failover(!args.no_failover);
        match HyliteRouter::connect(config) {
            Ok(r) => Conn::Routed(Box::new(r)),
            Err(e) => {
                eprintln!("router connect to {} failed: {e}", args.addr);
                return ExitCode::FAILURE;
            }
        }
    };
    let code = match args.execute {
        Some(sql) => {
            if run_one(&mut conn, &sql) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        None => {
            repl(&mut conn);
            ExitCode::SUCCESS
        }
    };
    match conn {
        Conn::Single(c) => {
            let _ = c.close();
        }
        Conn::Routed(r) => r.close(),
    }
    code
}
