//! Blocking client for the HyLite wire protocol.
//!
//! [`HyliteClient`] speaks the length-prefixed binary frame protocol of
//! `hylite-server` (see `docs/PROTOCOL.md`) over one TCP connection:
//!
//! ```no_run
//! use hylite_client::HyliteClient;
//!
//! let mut client = HyliteClient::connect("127.0.0.1:5433").unwrap();
//! let result = client.query("SELECT 1 + 1").unwrap();
//! println!("{}", result.to_table_string());
//! ```
//!
//! Results arrive as a stream of columnar chunks in HyLite's native
//! layout; [`HyliteClient::query`] collects them into a [`RemoteResult`],
//! while [`HyliteClient::query_streamed`] hands back a [`QueryStream`]
//! that yields chunks as they come off the wire, so arbitrarily large
//! results never have to fit in client memory either.
//!
//! Cancellation is out-of-band, PostgreSQL style: [`CancelHandle`]
//! (cloneable, `Send`) opens a *second* connection and asks the server to
//! abort whatever statement the original session is running. Server
//! errors are surfaced as the engine's own
//! [`HyError`] variants, reconstructed from the
//! stable wire error codes; [`HyliteClient::last_error_code`] exposes the
//! raw code (e.g. to distinguish the retryable admission rejections
//! `Overloaded`/`QueueTimeout`/`ShuttingDown`, which all map to
//! `HyError::Unavailable`).

#![warn(missing_docs)]

pub mod retry;
pub mod router;

use std::net::{SocketAddr, ToSocketAddrs};
use std::time::{Duration, Instant, SystemTime};

use hylite_common::faultnet::NP_CLIENT_CONNECT;
use hylite_common::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use hylite_common::{Chunk, HyError, NetHandle, NetStream, Result, Row, Schema, Value};

pub use retry::{is_retryable, RetryPolicy};
pub use router::{Consistency, HyliteRouter, Route, RouterConfig, RouterStats};

/// A blocking connection to a `hylite-server`.
#[derive(Debug)]
pub struct HyliteClient {
    stream: NetStream,
    net: NetHandle,
    peer: SocketAddr,
    session_id: u64,
    secret: u64,
    last_error_code: Option<ErrorCode>,
    /// Set when the protocol state is no longer trustworthy (unexpected
    /// frame or mid-stream I/O failure); every later call fails fast.
    broken: bool,
    /// Retries performed by the `*_with_retry` helpers on this client
    /// (reconnects and statement re-submissions).
    retries: u64,
}

impl HyliteClient {
    /// Connect and perform the Startup handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<HyliteClient> {
        HyliteClient::connect_via(&NetHandle::default(), addr)
    }

    /// Like [`HyliteClient::connect`], but routing the socket through the
    /// given [`NetHandle`] (the `client.connect` fault point), so tests
    /// and the chaos harness can inject transport faults.
    pub fn connect_via(net: &NetHandle, addr: impl ToSocketAddrs) -> Result<HyliteClient> {
        let stream = connect_any(net, addr)?;
        let peer = stream
            .peer_addr()
            .map_err(|e| HyError::Protocol(format!("peer_addr failed: {e}")))?;
        let mut client = HyliteClient {
            stream,
            net: net.clone(),
            peer,
            session_id: 0,
            secret: 0,
            last_error_code: None,
            broken: false,
            retries: 0,
        };
        let _ = client.stream.set_nodelay(true);
        wire::write_frame(
            &mut client.stream,
            &Frame::Startup {
                version: PROTOCOL_VERSION,
            },
        )?;
        match client.read()? {
            Frame::StartupOk {
                session_id, secret, ..
            } => {
                client.session_id = session_id;
                client.secret = secret;
                Ok(client)
            }
            other => Err(HyError::Protocol(format!(
                "expected StartupOk, got {other:?}"
            ))),
        }
    }

    /// The server-assigned session id from the handshake.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// A handle that can cancel this session's running statement from
    /// another thread via a separate connection.
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            net: self.net.clone(),
            addr: self.peer,
            session_id: self.session_id,
            secret: self.secret,
        }
    }

    /// The wire error code of the most recent server Error frame, if any.
    pub fn last_error_code(&self) -> Option<ErrorCode> {
        self.last_error_code
    }

    /// Retries performed so far by [`HyliteClient::connect_with_retry`],
    /// [`HyliteClient::query_with_retry`], and
    /// [`HyliteClient::query_streamed_with_retry`] on this client.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Like [`HyliteClient::connect`], but retrying retryable failures
    /// (connection refused, server overloaded or shutting down) with
    /// bounded exponential backoff + jitter.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        policy: &RetryPolicy,
    ) -> Result<HyliteClient> {
        HyliteClient::connect_with_retry_via(&NetHandle::default(), addr, policy)
    }

    /// [`HyliteClient::connect_with_retry`] through a caller-supplied
    /// [`NetHandle`].
    pub fn connect_with_retry_via(
        net: &NetHandle,
        addr: impl ToSocketAddrs + Clone,
        policy: &RetryPolicy,
    ) -> Result<HyliteClient> {
        retrying(policy, jitter_seed(), |attempt| {
            let mut client = HyliteClient::connect_via(net, addr.clone()).map_err(|e| {
                let again = retry::is_retryable(&e);
                (e, again)
            })?;
            client.retries += u64::from(attempt);
            Ok(client)
        })
    }

    /// Like [`HyliteClient::query`], but retrying retryable failures —
    /// admission rejections (`Overloaded`, `QueueTimeout`,
    /// `ShuttingDown`), governed aborts, and broken connections (after a
    /// transparent reconnect + handshake) — with bounded exponential
    /// backoff + jitter. Statements are re-submitted verbatim, so only
    /// use this for statements that are safe to re-run (the original
    /// attempt of a broken-connection retry may or may not have
    /// executed).
    pub fn query_with_retry(&mut self, sql: &str, policy: &RetryPolicy) -> Result<RemoteResult> {
        self.retry_statement(policy, |client| client.query(sql))
    }

    /// `submit` under `policy`, each retry counted under
    /// [`HyliteClient::retries`]: the two query forms of the retry loop.
    fn retry_statement<T>(
        &mut self,
        policy: &RetryPolicy,
        mut submit: impl FnMut(&mut HyliteClient) -> Result<T>,
    ) -> Result<T> {
        retrying(policy, jitter_seed() ^ self.secret, |attempt| {
            self.retries += u64::from(attempt > 0);
            // A broken protocol state never heals on its own: reconnect
            // first so the attempt below is meaningful.
            if self.broken {
                let net = self.net.clone();
                let fresh = HyliteClient::connect_via(&net, self.peer).map_err(|e| (e, false))?;
                let retries = self.retries;
                *self = fresh;
                self.retries = retries;
            }
            submit(self).map_err(|e| {
                let again = retry::is_retryable(&e) || self.broken;
                (e, again)
            })
        })
    }

    /// Execute `sql` and materialize the whole result client-side.
    pub fn query(&mut self, sql: &str) -> Result<RemoteResult> {
        let mut stream = self.query_streamed(sql)?;
        let schema = stream.schema().clone();
        let mut chunks = Vec::new();
        while let Some(chunk) = stream.next_chunk()? {
            chunks.push(chunk);
        }
        let summary = stream.summary().ok_or_else(|| {
            HyError::Protocol("result stream ended without CommandComplete".into())
        })?;
        Ok(RemoteResult {
            schema,
            chunks,
            rows_affected: summary.rows_affected,
            lsn: summary.lsn,
        })
    }

    /// Execute `sql` and stream the result chunk by chunk. Dropping the
    /// returned [`QueryStream`] early drains the remaining frames so the
    /// connection stays usable.
    pub fn query_streamed(&mut self, sql: &str) -> Result<QueryStream<'_>> {
        let schema = self.begin_query(sql)?;
        Ok(QueryStream {
            client: self,
            schema,
            summary: None,
            failed: false,
        })
    }

    /// Like [`HyliteClient::query_streamed`], but retrying retryable
    /// submission failures (admission rejections, governed aborts, broken
    /// connections after a transparent reconnect) with bounded backoff +
    /// jitter, counted under [`HyliteClient::retries`].
    ///
    /// Retries happen **only before any chunk has been delivered**: a
    /// retryable error on `begin` re-submits the statement, but once the
    /// stream is handed back, a mid-stream failure surfaces as an error —
    /// silently re-running the statement there could deliver rows twice.
    pub fn query_streamed_with_retry(
        &mut self,
        sql: &str,
        policy: &RetryPolicy,
    ) -> Result<QueryStream<'_>> {
        let schema = self.retry_statement(policy, |client| client.begin_query(sql))?;
        Ok(QueryStream {
            client: self,
            schema,
            summary: None,
            failed: false,
        })
    }

    /// Submit `sql` and read through the `ResultSchema` frame; the frames
    /// that follow on the connection are the result's data chunks.
    fn begin_query(&mut self, sql: &str) -> Result<Schema> {
        if self.broken {
            return Err(HyError::Protocol(
                "connection is in a failed protocol state; reconnect".into(),
            ));
        }
        if let Err(e) = wire::write_frame(&mut self.stream, &Frame::Query { sql: sql.into() }) {
            self.broken = true;
            return Err(e);
        }
        match self.read()? {
            Frame::ResultSchema { schema } => Ok(schema),
            other => {
                self.broken = true;
                Err(HyError::Protocol(format!(
                    "expected ResultSchema, got {other:?}"
                )))
            }
        }
    }

    /// Ask the server to begin a graceful shutdown (drain in-flight
    /// statements, then stop). The connection is unusable afterwards.
    pub fn shutdown_server(mut self) -> Result<()> {
        wire::write_frame(&mut self.stream, &Frame::Shutdown)?;
        Ok(())
    }

    /// Close the connection cleanly.
    pub fn close(mut self) -> Result<()> {
        wire::write_frame(&mut self.stream, &Frame::Terminate)?;
        Ok(())
    }

    /// The next reply: a transport failure breaks the connection, a
    /// server `Error` frame is recorded as [`HyliteClient::last_error_code`]
    /// and returned as its [`HyError`].
    fn read(&mut self) -> Result<Frame> {
        let frame = wire::read_frame(&mut self.stream).inspect_err(|_| self.broken = true)?;
        wire::reply_or_error(frame).map_err(|(code, e)| {
            self.last_error_code = Some(code);
            e
        })
    }
}

/// A fresh jitter seed per retry loop: wall-clock nanos mixed through
/// SplitMix64, so concurrent clients desynchronize without a `rand`
/// dependency.
fn jitter_seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5EED);
    hylite_common::hash::splitmix64(nanos)
}

/// The retry loop under every `*_with_retry`: `attempt(n)` for n = 0, 1,
/// … until it succeeds, fails with an error it marks as not worth
/// another try, `policy.max_attempts` are spent, or the next jittered
/// backoff would cross `policy.deadline` — the last two annotated by
/// [`retry::with_attempts`].
fn retrying<T>(
    policy: &RetryPolicy,
    seed: u64,
    mut attempt: impl FnMut(u32) -> std::result::Result<T, (HyError, bool)>,
) -> Result<T> {
    let started = Instant::now();
    let mut attempts = 0u32;
    loop {
        let (e, again) = match attempt(attempts) {
            Ok(done) => return Ok(done),
            Err(failed) => failed,
        };
        attempts += 1;
        if !again {
            return Err(e);
        }
        let backoff = policy.jittered_backoff(attempts - 1, seed);
        if attempts >= policy.max_attempts || started.elapsed() + backoff > policy.deadline {
            return Err(retry::with_attempts(e, attempts));
        }
        std::thread::sleep(backoff);
    }
}

fn connect_any(net: &NetHandle, addr: impl ToSocketAddrs) -> Result<NetStream> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| HyError::Protocol(format!("address resolution failed: {e}")))?
        .collect();
    let mut last = None;
    for a in &addrs {
        match net.connect_timeout(NP_CLIENT_CONNECT, a, Duration::from_secs(10)) {
            Ok(s) => return Ok(s),
            Err(e) => last = Some(e),
        }
    }
    Err(HyError::Unavailable(match last {
        Some(e) => format!("connect failed: {e}"),
        None => "connect failed: address resolved to nothing".into(),
    }))
}

/// Completion summary of one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Rows inserted/updated/deleted by DML.
    pub rows_affected: u64,
    /// Total result rows streamed.
    pub total_rows: u64,
    /// The serving node's durable LSN at completion: the commit
    /// watermark on a primary, the applied LSN on a replica, `0` when
    /// the node is non-durable (or predates the field). Routers use
    /// this as a session-consistency token.
    pub lsn: u64,
}

/// An in-flight streamed result. Yields chunks as they arrive; after
/// [`QueryStream::next_chunk`] returns `Ok(None)`, [`QueryStream::summary`]
/// holds the completion counts.
pub struct QueryStream<'a> {
    client: &'a mut HyliteClient,
    schema: Schema,
    summary: Option<Summary>,
    failed: bool,
}

impl QueryStream<'_> {
    /// The result schema (sent before any data).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The next chunk, `Ok(None)` once the statement completed.
    pub fn next_chunk(&mut self) -> Result<Option<Chunk>> {
        if self.summary.is_some() || self.failed {
            return Ok(None);
        }
        // A server error mid-statement leaves the framing intact: the
        // statement has failed, the connection remains usable.
        let frame = self.client.read().inspect_err(|_| self.failed = true)?;
        match frame {
            Frame::DataChunk { chunk } => Ok(Some(chunk)),
            Frame::CommandComplete {
                rows_affected,
                total_rows,
                lsn,
            } => {
                self.summary = Some(Summary {
                    rows_affected,
                    total_rows,
                    lsn,
                });
                Ok(None)
            }
            other => {
                self.failed = true;
                self.client.broken = true;
                Err(HyError::Protocol(format!(
                    "expected DataChunk or CommandComplete, got {other:?}"
                )))
            }
        }
    }

    /// The completion summary, once the stream is exhausted.
    pub fn summary(&self) -> Option<Summary> {
        self.summary
    }
}

impl Drop for QueryStream<'_> {
    fn drop(&mut self) {
        // Drain an abandoned result so the next query on this connection
        // doesn't read stale frames.
        while let Ok(Some(_)) = self.next_chunk() {}
    }
}

/// A fully materialized remote result: the client-side mirror of the
/// engine's `QueryResult`, rebuilt from the streamed wire chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResult {
    /// The result schema.
    pub schema: Schema,
    /// The result chunks, exactly as streamed (native columnar layout).
    pub chunks: Vec<Chunk>,
    /// Rows inserted/updated/deleted by DML.
    pub rows_affected: u64,
    /// The serving node's durable LSN at completion (see
    /// [`Summary::lsn`]); `0` on non-durable servers.
    pub lsn: u64,
}

impl RemoteResult {
    /// Total result rows.
    pub fn row_count(&self) -> usize {
        self.chunks.iter().map(Chunk::len).sum()
    }

    /// Materialize the whole result into one chunk (for comparisons with
    /// embedded `QueryResult::to_chunk`).
    pub fn to_chunk(&self) -> Result<Chunk> {
        Chunk::concat(&self.schema.types(), &self.chunks)
    }

    /// Materialize all rows.
    pub fn to_rows(&self) -> Vec<Row> {
        self.chunks.iter().flat_map(|c| c.rows()).collect()
    }

    /// Value at (row, column) across chunk boundaries.
    pub fn value(&self, mut row: usize, col: usize) -> Result<Value> {
        for chunk in &self.chunks {
            if row < chunk.len() {
                return Ok(chunk.column(col).value(row));
            }
            row -= chunk.len();
        }
        Err(HyError::Execution(format!("row {row} out of range")))
    }

    /// Convenience: single value of a one-row, one-column result.
    pub fn scalar(&self) -> Result<Value> {
        if self.row_count() != 1 || self.schema.len() != 1 {
            return Err(HyError::Execution(format!(
                "expected a 1×1 result, got {}×{}",
                self.row_count(),
                self.schema.len()
            )));
        }
        self.value(0, 0)
    }

    /// Render as an ASCII table.
    pub fn to_table_string(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        match self.to_chunk() {
            Ok(chunk) => chunk.to_table_string(&headers),
            Err(e) => format!("<error rendering result: {e}>"),
        }
    }
}

/// Cancels the statement running on another connection's session, by
/// opening a dedicated cancel connection (which bypasses the server's
/// connection cap). Cloneable and `Send`: hand it to a watchdog thread.
#[derive(Debug, Clone)]
pub struct CancelHandle {
    net: NetHandle,
    addr: SocketAddr,
    session_id: u64,
    secret: u64,
}

impl CancelHandle {
    /// Deliver the cancel. Returns whether the server found the session
    /// and fired its cancel token (the statement aborts at its next
    /// governor check point — within one morsel or algorithm iteration).
    pub fn cancel(&self) -> Result<bool> {
        let stream = self
            .net
            .connect_timeout(NP_CLIENT_CONNECT, &self.addr, Duration::from_secs(10))
            .map_err(|e| HyError::Unavailable(format!("cancel connect failed: {e}")))?;
        let cancel = Frame::Cancel {
            session_id: self.session_id,
            secret: self.secret,
        };
        exchange(stream, &cancel, "CancelAck", None, |reply| match reply {
            Frame::CancelAck { delivered } => Some(*delivered),
            _ => None,
        })
    }
}

/// The one-shot exchange under cancel, shutdown, promote, repoint and
/// backup: send `request` on its own connection and read the one reply.
/// A server `Error` frame comes back as its [`HyError`], a frame `accept`
/// does not take as `expected {expected}, got …`. `lost` answers a
/// connection that closes before the reply.
fn exchange<T>(
    mut stream: NetStream,
    request: &Frame,
    expected: &str,
    lost: Option<T>,
    accept: impl FnOnce(&Frame) -> Option<T>,
) -> Result<T> {
    wire::write_frame(&mut stream, request)?;
    let reply = match wire::read_frame(&mut stream) {
        Ok(frame) => wire::reply_or_error(frame).map_err(|(_, e)| e)?,
        Err(e) => return lost.ok_or(e),
    };
    accept(&reply).ok_or_else(|| HyError::Protocol(format!("expected {expected}, got {reply:?}")))
}

/// Connect to `addr` and request a graceful server shutdown without
/// establishing a query session (used by `hylite-cli --shutdown`).
pub fn request_shutdown(addr: impl ToSocketAddrs) -> Result<()> {
    let stream = connect_any(&NetHandle::default(), addr)?;
    // The server acknowledges with CommandComplete before draining; a
    // connection that closes first has still delivered the request.
    exchange(
        stream,
        &Frame::Shutdown,
        "CommandComplete",
        Some(()),
        |reply| matches!(reply, Frame::CommandComplete { .. }).then_some(()),
    )
}

/// Connect to a replica at `addr` and promote it to primary in place.
/// Returns the promoted node's fresh `(epoch, durable_lsn)`. Idempotent
/// on a node that is already a primary.
pub fn request_promote(addr: impl ToSocketAddrs) -> Result<(u64, u64)> {
    request_promote_via(&NetHandle::default(), addr)
}

/// [`request_promote`] through a caller-supplied [`NetHandle`].
pub fn request_promote_via(net: &NetHandle, addr: impl ToSocketAddrs) -> Result<(u64, u64)> {
    exchange(
        connect_any(net, addr)?,
        &Frame::Promote,
        "PromoteOk",
        None,
        |reply| match reply {
            Frame::PromoteOk { epoch, lsn } => Some((*epoch, *lsn)),
            _ => None,
        },
    )
}

/// Connect to a replica at `addr` and re-point it at a new primary
/// (`primary_addr`). The replica abandons its current stream and
/// reconnects; epoch fencing makes it re-bootstrap if its history
/// diverged from the new primary's.
pub fn request_repoint(addr: impl ToSocketAddrs, primary_addr: &str) -> Result<()> {
    request_repoint_via(&NetHandle::default(), addr, primary_addr)
}

/// [`request_repoint`] through a caller-supplied [`NetHandle`].
pub fn request_repoint_via(
    net: &NetHandle,
    addr: impl ToSocketAddrs,
    primary_addr: &str,
) -> Result<()> {
    let repoint = Frame::Repoint {
        primary_addr: primary_addr.to_string(),
    };
    exchange(
        connect_any(net, addr)?,
        &repoint,
        "CommandComplete",
        None,
        |reply| matches!(reply, Frame::CommandComplete { .. }).then_some(()),
    )
}

/// What a server-side backup reported back over the wire.
#[derive(Debug, Clone, Copy)]
pub struct BackupReport {
    /// Highest LSN the backup contains.
    pub lsn: u64,
    /// Segment files physically copied.
    pub segments: u64,
    /// Bytes copied.
    pub bytes: u64,
}

/// Connect to `addr` and take an online backup into `dir` (a path on the
/// *server's* filesystem). `base` makes it incremental against an earlier
/// backup; `verify` re-reads every copied file before completion.
pub fn request_backup(
    addr: impl ToSocketAddrs,
    dir: &str,
    base: Option<&str>,
    verify: bool,
) -> Result<BackupReport> {
    request_backup_via(&NetHandle::default(), addr, dir, base, verify)
}

/// [`request_backup`] through a caller-supplied [`NetHandle`].
pub fn request_backup_via(
    net: &NetHandle,
    addr: impl ToSocketAddrs,
    dir: &str,
    base: Option<&str>,
    verify: bool,
) -> Result<BackupReport> {
    let backup = Frame::Backup {
        dir: dir.to_string(),
        base: base.map(str::to_string),
        verify,
    };
    exchange(
        connect_any(net, addr)?,
        &backup,
        "BackupOk",
        None,
        |reply| match reply {
            Frame::BackupOk {
                lsn,
                segments,
                bytes,
            } => Some(BackupReport {
                lsn: *lsn,
                segments: *segments,
                bytes: *bytes,
            }),
            _ => None,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::{ColumnVector, DataType, Field};

    fn result() -> RemoteResult {
        RemoteResult {
            schema: Schema::new(vec![Field::new("x", DataType::Int64)]),
            chunks: vec![
                Chunk::new(vec![ColumnVector::from_i64(vec![1, 2])]),
                Chunk::new(vec![ColumnVector::from_i64(vec![3])]),
            ],
            rows_affected: 0,
            lsn: 0,
        }
    }

    #[test]
    fn remote_result_mirrors_query_result_accessors() {
        let r = result();
        assert_eq!(r.row_count(), 3);
        assert_eq!(r.value(2, 0).unwrap(), Value::Int(3));
        assert!(r.value(3, 0).is_err());
        assert_eq!(r.to_chunk().unwrap().len(), 3);
        let table = r.to_table_string();
        assert!(table.contains('x'), "{table}");
    }

    #[test]
    fn scalar_requires_one_by_one() {
        let r = result();
        assert!(r.scalar().is_err());
        let one = RemoteResult {
            schema: Schema::new(vec![Field::new("x", DataType::Int64)]),
            chunks: vec![Chunk::new(vec![ColumnVector::from_i64(vec![7])])],
            rows_affected: 0,
            lsn: 0,
        };
        assert_eq!(one.scalar().unwrap(), Value::Int(7));
    }
}
