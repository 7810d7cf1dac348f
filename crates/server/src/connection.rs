//! Per-connection protocol handling: the connection gate, the one reply
//! to a first frame, the query loop, result streaming, out-of-band cancel.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_common::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use hylite_common::{HyError, NetStream, Result, CHUNK_ROWS};
use hylite_core::{QueryResult, Session};

use crate::server::{SessionEntry, Shared};

/// Deadline for the first frame of a fresh connection, so half-open
/// sockets can't pin resources forever.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// A refused request: the exact code and message of its `Error` reply.
/// The code travels apart from any [`HyError`], so `ShuttingDown` and
/// `Overloaded` stay distinct on the wire although a client reads both
/// as `HyError::Unavailable`.
pub(crate) struct Refusal(pub ErrorCode, pub String);

impl From<HyError> for Refusal {
    fn from(e: HyError) -> Refusal {
        Refusal(ErrorCode::from_error(&e), e.message().to_owned())
    }
}

/// What a first frame is answered with, or why it was refused.
pub(crate) type Reply<T = Frame> = std::result::Result<T, Refusal>;

/// Refuse with `code` and `message`.
pub(crate) fn refused<T>(code: ErrorCode, message: impl Into<String>) -> Reply<T> {
    Err(Refusal(code, message.into()))
}

/// A connection's place under `max_connections`, counted in its kind's
/// gauge while held and given back on drop, like
/// [`StatementPermit`](crate::admission::StatementPermit).
pub(crate) struct Slot<'a> {
    shared: &'a Shared,
    gauge: &'static str,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        self.shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        self.shared.metrics.gauge(self.gauge).add(-1);
    }
}

/// The gate every connection that holds a slot passes, in this order:
/// the protocol version, the drain, the kind's own `checks`, then a slot
/// under the connection cap, counted in `gauge`.
pub(crate) fn admit<'a, T>(
    shared: &'a Shared,
    version: u32,
    gauge: &'static str,
    checks: impl FnOnce() -> Reply<T>,
) -> Reply<(T, Slot<'a>)> {
    if version != PROTOCOL_VERSION {
        return refused(
            ErrorCode::Protocol,
            format!("protocol version {version} not supported (server speaks {PROTOCOL_VERSION})"),
        );
    }
    if shared.is_draining() {
        return refused(ErrorCode::ShuttingDown, "server is shutting down");
    }
    let checked = checks()?;
    let cap = shared.config.max_connections;
    if shared.conn_count.fetch_add(1, Ordering::AcqRel) >= cap {
        shared.conn_count.fetch_sub(1, Ordering::AcqRel);
        shared.metrics.counter("server.connections_rejected").inc();
        return refused(
            ErrorCode::Overloaded,
            format!("connection cap of {cap} reached"),
        );
    }
    shared.metrics.gauge(gauge).add(1);
    Ok((checked, Slot { shared, gauge }))
}

/// Entry point of a connection thread: dispatch on the first frame and
/// write its one reply. A query session and a replication stream go on
/// talking once past the gate (`Ok(None)`); a refusal of them is the
/// reply like any other.
pub(crate) fn serve_connection(mut stream: NetStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let Ok(first) = wire::read_frame(&mut stream) else {
        return;
    };
    let reply = match first {
        Frame::Startup { version } => serve_session(&mut stream, &shared, version).map(|()| None),
        Frame::Replicate {
            version,
            epoch,
            last_lsn,
        } => crate::replication::serve_replication(&mut stream, &shared, version, epoch, last_lsn)
            .map(|()| None),
        Frame::Cancel { session_id, secret } => Ok(Some(cancel(&shared, session_id, secret))),
        Frame::Shutdown => {
            shared.request_shutdown();
            Ok(Some(completion(&shared)))
        }
        Frame::Promote => promote(&shared).map(Some),
        Frame::Repoint { primary_addr } => repoint(&shared, &primary_addr).map(Some),
        Frame::Backup { dir, base, verify } => backup(&shared, &dir, base, verify).map(Some),
        _ => refused(
            ErrorCode::Protocol,
            "expected Startup, Cancel, Replicate, Shutdown, Promote, Repoint, or Backup as the \
             first frame",
        ),
    };
    let reply = match reply {
        Ok(None) => return,
        Ok(Some(frame)) => frame,
        Err(Refusal(code, message)) => Frame::error_with_code(code, message),
    };
    let _ = wire::write_frame(&mut stream, &reply);
}

/// This node's highest durable LSN (`0` on a non-durable server).
fn durable_lsn(shared: &Shared) -> u64 {
    shared
        .db
        .durability()
        .map(|d| d.next_lsn().saturating_sub(1))
        .unwrap_or(0)
}

/// The bare `CommandComplete` an admin request is acknowledged with.
fn completion(shared: &Shared) -> Frame {
    Frame::CommandComplete {
        rows_affected: 0,
        total_rows: 0,
        lsn: durable_lsn(shared),
    }
}

/// Admin frame: promote this replica to a writable primary in place.
/// Idempotent on a node that already serves writes.
fn promote(shared: &Shared) -> Reply {
    let epoch = if !shared.db.is_replica() {
        let Some(durability) = shared.db.durability() else {
            return refused(
                ErrorCode::Protocol,
                "promotion requires a durable server (start it with --data-dir)",
            );
        };
        durability.epoch()
    } else {
        let Some(failover) = shared.failover.get() else {
            return refused(
                ErrorCode::Internal,
                "this replica has no failover control registered",
            );
        };
        let epoch = failover.promote(shared)?;
        shared.metrics.counter("server.promotions").inc();
        epoch
    };
    Ok(Frame::PromoteOk {
        epoch,
        lsn: durable_lsn(shared),
    })
}

/// Admin frame: tell this replica to follow a different primary.
fn repoint(shared: &Shared, primary_addr: &str) -> Reply {
    let failover = shared.failover.get().filter(|_| shared.db.is_replica());
    let Some(failover) = failover else {
        return refused(
            ErrorCode::Protocol,
            "Repoint targets a replica; this server is not one",
        );
    };
    failover.repoint(shared, primary_addr)?;
    shared.metrics.counter("server.repoints").inc();
    Ok(completion(shared))
}

/// Admin frame: take an online backup into a server-side directory.
/// Works on primaries and replicas alike (a backup is a read); the copy
/// runs outside the commit lock, so writes proceed while it streams.
fn backup(shared: &Shared, dir: &str, base: Option<String>, verify: bool) -> Reply {
    let Some(durability) = shared.db.durability() else {
        return refused(
            ErrorCode::Protocol,
            "backup requires a durable server (start it with --data-dir)",
        );
    };
    let summary = durability.backup(Path::new(dir), base.as_deref().map(Path::new), verify)?;
    shared.metrics.counter("server.backups").inc();
    Ok(Frame::BackupOk {
        lsn: summary.backup_lsn,
        segments: summary.segments_copied,
        bytes: summary.bytes,
    })
}

/// A query session: the gate, the engine session registered for cancel
/// and drain, `StartupOk`, then statements until the peer leaves.
fn serve_session(stream: &mut NetStream, shared: &Shared, version: u32) -> Reply<()> {
    let ((), _slot) = admit(shared, version, "server.connections_active", || Ok(()))?;
    // Build the engine session with the server-level governor defaults;
    // a later client `SET` simply overwrites them.
    let mut session = shared.db.session();
    let config = &shared.config;
    for (name, value) in [
        ("statement_timeout_ms", config.statement_timeout_ms),
        ("memory_budget_mb", config.memory_budget_mb),
        ("slow_query_ms", config.slow_query_ms),
    ] {
        if value > 0 {
            let _ = session.execute(&format!("SET {name} = {value}"));
        }
    }
    // On a replica the session is already read-only; replace the generic
    // redirect message with the primary's actual address. Runtime state,
    // not config: a promotion clears it and a repoint rewrites it.
    if let Some(primary) = shared.read_only_primary() {
        session.set_read_only(primary);
    }

    // The wire session id IS the engine session id, so `hylite.sessions`,
    // `hylite.connections`, slow-log entries, and trace ids all line up
    // with what the client was told at startup.
    let session_id = session.id();
    let secret = shared.new_secret(session_id);
    let busy = Arc::new(AtomicBool::new(false));
    // The drain path only ever calls `shutdown` on this handle; a raw
    // clone bypasses fault injection so a scripted partition can never
    // block server shutdown.
    let entry_stream = stream
        .raw_try_clone()
        .map_err(|e| Refusal(ErrorCode::Internal, format!("socket clone failed: {e}")))?;
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    // Register before StartupOk so a Cancel racing right behind the
    // handshake already finds the session.
    shared.sessions.lock().insert(
        session_id,
        SessionEntry {
            secret,
            cancel: session.cancel_handle(),
            stream: entry_stream,
            busy: Arc::clone(&busy),
            peer,
        },
    );
    let ok = wire::write_frame(
        stream,
        &Frame::StartupOk {
            version: PROTOCOL_VERSION,
            session_id,
            secret,
        },
    );
    if ok.is_ok() {
        let _ = stream.set_read_timeout(None);
        query_loop(stream, &mut session, shared, &busy);
    }
    shared.sessions.lock().remove(&session_id);
    // `session` drops here, rolling back any open transaction, then the
    // slot.
    Ok(())
}

/// Serve Query frames until the peer disconnects, terminates, or the
/// server drains.
fn query_loop(stream: &mut NetStream, session: &mut Session, shared: &Shared, busy: &AtomicBool) {
    // A read error means disconnect, malformed frame, or the drain closing
    // the socket — all of them end the session.
    while let Ok(frame) = wire::read_frame(stream) {
        match frame {
            Frame::Query { sql } => {
                if shared.is_draining() {
                    let _ = wire::write_frame(
                        stream,
                        &Frame::error_with_code(ErrorCode::ShuttingDown, "server is shutting down"),
                    );
                    break;
                }
                let permit = match shared.admission.admit() {
                    Ok(p) => p,
                    Err(rejection) => {
                        shared.metrics.counter("server.query_errors").inc();
                        let sent = wire::write_frame(
                            stream,
                            &Frame::error_with_code(rejection.code(), rejection.message()),
                        );
                        if sent.is_err() {
                            break;
                        }
                        continue;
                    }
                };
                busy.store(true, Ordering::Release);
                let started = Instant::now();
                // Panic isolation: the engine is designed panic-free, but
                // a panicking operator must cost exactly one connection,
                // not the server. AssertUnwindSafe is sound here because
                // a panicking session is never used again — the loop
                // breaks and the session drops (rolling back its open
                // transaction) right after.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    if shared.config.panic_on_sql.as_deref() == Some(sql.as_str()) {
                        panic!("injected fault for statement {sql:?}");
                    }
                    session.execute(&sql)
                }));
                busy.store(false, Ordering::Release);
                // Execution is done (results are materialized); release the
                // slot *before* writing any frame so that by the time the
                // client sees completion the slot is observably free.
                drop(permit);
                let result = match result {
                    Ok(r) => r,
                    Err(panic) => {
                        shared.metrics.counter("server.panics").inc();
                        shared.metrics.counter("server.query_errors").inc();
                        let msg = panic_message(&panic);
                        let _ = wire::write_frame(
                            stream,
                            &Frame::error_with_code(
                                ErrorCode::Internal,
                                format!("statement panicked: {msg}"),
                            ),
                        );
                        break; // session state is unknown; end this connection only
                    }
                };
                let outcome = match result {
                    Ok(r) => stream_result(stream, &r, shared),
                    Err(e) => {
                        shared.metrics.counter("server.query_errors").inc();
                        wire::write_frame(stream, &Frame::error(&e)).map(|_| ())
                    }
                };
                shared.metrics.counter("server.queries").inc();
                shared
                    .metrics
                    .histogram("server.statement_us")
                    .record(started.elapsed().as_micros() as u64);
                if outcome.is_err() {
                    break; // peer went away mid-result
                }
                if shared.is_draining() {
                    break; // in-flight statement drained; now close
                }
            }
            Frame::Terminate => break,
            Frame::Shutdown => {
                shared.request_shutdown();
                break;
            }
            _ => {
                let _ = wire::write_frame(
                    stream,
                    &Frame::error_with_code(
                        ErrorCode::Protocol,
                        "expected Query, Terminate, or Shutdown",
                    ),
                );
                break;
            }
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Stream one result: schema, then each chunk as soon as it is sliced
/// off (bounded server-side memory), then completion.
fn stream_result(stream: &mut NetStream, result: &QueryResult, shared: &Shared) -> Result<()> {
    let mut bytes = wire::write_frame(
        stream,
        &Frame::ResultSchema {
            schema: result.schema().as_ref().clone(),
        },
    )?;
    let mut rows = 0u64;
    let mut chunks = 0u64;
    for chunk in result.stream_chunks(CHUNK_ROWS) {
        rows += chunk.len() as u64;
        chunks += 1;
        bytes += wire::write_frame(stream, &Frame::DataChunk { chunk })?;
    }
    bytes += wire::write_frame(
        stream,
        &Frame::CommandComplete {
            rows_affected: result.rows_affected as u64,
            total_rows: rows,
            // The durable watermark travels with every completion so a
            // router can track each node's applied LSN for free.
            lsn: durable_lsn(shared),
        },
    )?;
    shared.metrics.counter("server.rows_sent").add(rows);
    shared.metrics.counter("server.chunks_sent").add(chunks);
    shared
        .metrics
        .counter("server.bytes_sent")
        .add(bytes as u64);
    Ok(())
}

/// Out-of-band cancel: deliver if the (session, secret) pair matches a
/// registered session, then answer and close.
fn cancel(shared: &Shared, session_id: u64, secret: u64) -> Frame {
    let delivered = {
        let sessions = shared.sessions.lock();
        match sessions.get(&session_id) {
            Some(entry) if entry.secret == secret => {
                entry.cancel.cancel();
                true
            }
            _ => false,
        }
    };
    shared.metrics.counter("server.cancel_requests").inc();
    if delivered {
        shared.metrics.counter("server.cancel_delivered").inc();
    }
    Frame::CancelAck { delivered }
}
