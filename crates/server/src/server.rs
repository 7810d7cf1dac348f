//! The TCP server: accept loop, session registry, graceful shutdown.

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use hylite_common::governor::CancelToken;
use hylite_common::hash::splitmix64;
use hylite_common::sysview::{SystemView, SystemViewProvider};
use hylite_common::telemetry::MetricsRegistry;
use hylite_common::{HyError, Result, Value};
use hylite_core::Database;
use parking_lot::Mutex;

use crate::admission::Admission;
use crate::config::ServerConfig;
use crate::connection;
use crate::replica::Failover;

/// One registered query session (a connection that completed Startup).
pub(crate) struct SessionEntry {
    /// Secret required by out-of-band Cancel frames.
    pub secret: u64,
    /// Cancels the statement currently running on this session.
    pub cancel: Arc<CancelToken>,
    /// Socket clone used to unblock idle readers during shutdown.
    pub stream: TcpStream,
    /// True while a statement is executing / streaming its result.
    pub busy: Arc<AtomicBool>,
    /// Remote peer address, surfaced by `hylite.connections`.
    pub peer: String,
}

/// Live progress of one primary→replica WAL stream, published by the
/// streamer thread and read by `hylite.replication` and the lag gauges.
#[derive(Debug, Default)]
pub(crate) struct ReplStreamStats {
    /// Remote peer address of the replica connection.
    pub peer: Mutex<String>,
    /// Primary epoch the stream is serving.
    pub epoch: AtomicU64,
    /// Highest LSN written to the socket.
    pub sent_lsn: AtomicU64,
    /// Highest LSN the replica has durably acknowledged.
    pub acked_lsn: AtomicU64,
    /// Payload bytes sent but not yet acknowledged (flow-control window).
    pub unacked_bytes: AtomicU64,
    /// Snapshot bootstraps shipped over this stream.
    pub bootstraps: AtomicU64,
}

/// State shared by the accept loop and every connection thread.
pub(crate) struct Shared {
    pub db: Arc<Database>,
    pub config: ServerConfig,
    pub admission: Admission,
    pub metrics: Arc<MetricsRegistry>,
    /// Set when a drain has started: no new connections or statements.
    pub draining: AtomicBool,
    /// Set by `ServerHandle::shutdown` or a Shutdown frame; observed by
    /// the accept loop, which then performs the drain.
    pub shutdown_requested: AtomicBool,
    /// Registered query sessions by session id.
    pub sessions: Mutex<HashMap<u64, SessionEntry>>,
    /// Connections holding a slot under the connection cap: query
    /// sessions and replication streams (see `connection::admit`).
    pub conn_count: AtomicUsize,
    /// Connection thread handles, joined during shutdown.
    pub conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Live primary→replica streams by stream id.
    pub repl_streams: Mutex<HashMap<u64, Arc<ReplStreamStats>>>,
    next_repl_stream_id: AtomicU64,
    /// Runtime read-only redirect: `Some(primary_addr)` while this node
    /// follows a primary, cleared by an in-place promotion. Seeded from
    /// [`ServerConfig::read_only_primary`]; new sessions consult this,
    /// not the config, so a promotion takes effect without a restart.
    read_only_primary: Mutex<Option<String>>,
    /// Set by [`crate::Replica`] so admin frames can promote / repoint
    /// its apply loop.
    pub failover: OnceLock<Failover>,
}

impl Shared {
    /// Derive a per-session cancel secret. Not cryptographic — it guards
    /// against accidental cross-session cancels, like PostgreSQL's
    /// `BackendKeyData`.
    pub fn new_secret(&self, session_id: u64) -> u64 {
        let nanos = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ session_id.rotate_left(32) ^ (self as *const Shared as usize as u64))
    }

    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    pub fn request_shutdown(&self) {
        self.shutdown_requested.store(true, Ordering::Release);
    }

    /// The primary address new sessions should be redirected to for
    /// writes, `None` once this node serves writes itself.
    pub fn read_only_primary(&self) -> Option<String> {
        self.read_only_primary.lock().clone()
    }

    /// Redirect writes to a (new) primary address — a repointed replica.
    pub fn set_read_only_primary(&self, primary_addr: &str) {
        *self.read_only_primary.lock() = Some(primary_addr.to_owned());
    }

    /// Clear the read-only redirect — this node was promoted and now
    /// accepts writes. Sessions opened before the promotion stay
    /// read-only; clients reconnect (the router does this on failover).
    pub fn set_writable(&self) {
        self.read_only_primary.lock().take();
    }

    /// Register a new primary→replica stream; returns its id and stats
    /// handle (the streamer thread updates the stats in place).
    pub fn register_repl_stream(&self, peer: String) -> (u64, Arc<ReplStreamStats>) {
        let id = self.next_repl_stream_id.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(ReplStreamStats::default());
        *stats.peer.lock() = peer;
        self.repl_streams.lock().insert(id, Arc::clone(&stats));
        (id, stats)
    }

    /// Remove a finished stream from the registry.
    pub fn unregister_repl_stream(&self, id: u64) {
        self.repl_streams.lock().remove(&id);
        self.refresh_repl_gauges();
    }

    /// Recompute the primary-side replication lag gauges from the live
    /// streams: `repl.lag_bytes` is the total unacknowledged payload,
    /// `repl.lag_frames` the worst per-replica LSN distance. Registered
    /// at zero on startup so the metric names exist even with no replica
    /// attached. Called on every scrape and stream-state change.
    pub fn refresh_repl_gauges(&self) {
        let next_lsn = self.db.durability().map(|d| d.next_lsn()).unwrap_or(1);
        let mut lag_bytes = 0u64;
        let mut lag_frames = 0u64;
        for stats in self.repl_streams.lock().values() {
            lag_bytes += stats.unacked_bytes.load(Ordering::Acquire);
            let acked = stats.acked_lsn.load(Ordering::Acquire);
            lag_frames = lag_frames.max(next_lsn.saturating_sub(1).saturating_sub(acked));
        }
        self.metrics.gauge("repl.lag_bytes").set(lag_bytes as i64);
        self.metrics.gauge("repl.lag_frames").set(lag_frames as i64);
    }
}

impl SystemViewProvider for Shared {
    fn system_view_rows(&self, view: SystemView) -> Option<Vec<Vec<Value>>> {
        match view {
            SystemView::Connections => Some(
                self.sessions
                    .lock()
                    .iter()
                    .map(|(id, entry)| {
                        vec![
                            Value::Int(*id as i64),
                            Value::from(entry.peer.as_str()),
                            Value::from(if entry.busy.load(Ordering::Acquire) {
                                "busy"
                            } else {
                                "idle"
                            }),
                        ]
                    })
                    .collect(),
            ),
            SystemView::Replication => {
                // Primary-side rows only; a replica's self-row comes from
                // the provider its `Replica` handle registers.
                self.refresh_repl_gauges();
                let next_lsn = self.db.durability().map(|d| d.next_lsn()).unwrap_or(1);
                let streams = self.repl_streams.lock();
                // A standalone node — not following a primary, no replica
                // attached — reports one explicit row instead of an empty
                // table, so `\lag` never renders silence as an answer.
                let node_state = self.db.durability().map(|d| d.node_state()).unwrap_or("ok");
                if streams.is_empty() && !self.db.is_replica() {
                    let epoch = self.db.durability().map(|d| d.epoch()).unwrap_or(0);
                    return Some(vec![vec![
                        Value::from("standalone"),
                        Value::Null,
                        Value::from("no replication configured"),
                        Value::Int(epoch as i64),
                        Value::Null,
                        Value::Null,
                        Value::Null,
                        Value::Null,
                        Value::Null,
                        Value::Null,
                        Value::from(node_state),
                        Value::Null,
                        Value::Null,
                    ]]);
                }
                Some(
                    streams
                        .values()
                        .map(|s| {
                            let acked = s.acked_lsn.load(Ordering::Acquire);
                            vec![
                                Value::from("primary"),
                                Value::from(s.peer.lock().as_str()),
                                Value::from("streaming"),
                                Value::Int(s.epoch.load(Ordering::Acquire) as i64),
                                Value::Int(s.sent_lsn.load(Ordering::Acquire) as i64),
                                Value::Int(acked as i64),
                                Value::Int(next_lsn.saturating_sub(1).saturating_sub(acked) as i64),
                                Value::Int(s.unacked_bytes.load(Ordering::Acquire) as i64),
                                Value::Int(s.bootstraps.load(Ordering::Acquire) as i64),
                                Value::Null,
                                Value::from(node_state),
                                Value::Null,
                                Value::Null,
                            ]
                        })
                        .collect(),
                )
            }
            _ => None,
        }
    }
}

/// The HyLite network server. [`Server::start`] binds, spawns the accept
/// loop, and returns a [`ServerHandle`] for address discovery and
/// shutdown.
pub struct Server;

impl Server {
    /// Bind `config.addr` and start serving `db`. Every connection gets
    /// its own engine [`Session`](hylite_core::Session) over the shared
    /// database; all sessions report into `db`'s metrics registry under
    /// `server.*` names.
    pub fn start(config: ServerConfig, db: Arc<Database>) -> Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| HyError::Unavailable(format!("bind {} failed: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| HyError::Internal(format!("local_addr failed: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| HyError::Internal(format!("set_nonblocking failed: {e}")))?;
        let metrics = Arc::clone(db.metrics());
        let admission = Admission::new(
            config.max_active_statements,
            config.statement_queue_depth,
            config.queue_wait,
            Arc::clone(&metrics),
        );
        let shared = Arc::new(Shared {
            db,
            config,
            admission,
            metrics,
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            conn_count: AtomicUsize::new(0),
            conn_threads: Mutex::new(Vec::new()),
            repl_streams: Mutex::new(HashMap::new()),
            next_repl_stream_id: AtomicU64::new(1),
            read_only_primary: Mutex::new(None),
            failover: OnceLock::new(),
        });
        *shared.read_only_primary.lock() = shared.config.read_only_primary.clone();
        // Register the lag gauges at zero so `hylite_repl_lag_bytes` is
        // always present in a scrape, replica attached or not, and plug
        // the server into the database's system-view hub (connections,
        // primary-side replication rows).
        shared.metrics.gauge("repl.lag_bytes").set(0);
        shared.metrics.gauge("repl.lag_frames").set(0);
        shared
            .db
            .system_views()
            .register(Arc::downgrade(&shared) as std::sync::Weak<dyn SystemViewProvider>);
        let metrics_listener = match &shared.config.metrics_addr {
            Some(addr) => Some(crate::metrics_http::serve(addr, Arc::clone(&shared))?),
            None => None,
        };
        // Disk-pressure probe: on a durable database, periodically ask the
        // durability layer to leave read-only degraded mode once space
        // frees up, so an ENOSPC node resumes writes without a restart.
        let probe_thread = if shared.db.durability().is_some() {
            let probe_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("hylite-space-probe".into())
                    .spawn(move || disk_pressure_probe(probe_shared))
                    .map_err(|e| HyError::Internal(format!("spawning space probe failed: {e}")))?,
            )
        } else {
            None
        };
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("hylite-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| HyError::Internal(format!("spawning accept loop failed: {e}")))?;
        Ok(ServerHandle {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            probe_thread,
            metrics_listener,
        })
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    probe_thread: Option<JoinHandle<()>>,
    metrics_listener: Option<crate::metrics_http::MetricsListener>,
}

impl ServerHandle {
    /// The bound listen address (resolves port `0` requests).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound Prometheus exposition address, when
    /// [`ServerConfig::metrics_addr`](crate::ServerConfig) was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_listener.as_ref().map(|m| m.local_addr)
    }

    /// The metrics registry the server reports into (shared with the
    /// database engine).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// Number of registered query connections.
    pub fn connections(&self) -> usize {
        self.shared.conn_count.load(Ordering::Acquire)
    }

    /// Request graceful shutdown and wait for it to finish: stop
    /// accepting, let in-flight statements drain for
    /// `config.drain_timeout`, cancel stragglers, close every
    /// connection, and join all threads.
    pub fn shutdown(mut self) {
        self.shared.request_shutdown();
        self.join_accept();
    }

    /// Block until the server stops (e.g. a client sent a Shutdown
    /// frame). Equivalent to `shutdown()` without requesting it.
    pub fn join(mut self) {
        self.join_accept();
    }

    fn join_accept(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.probe_thread.take() {
            let _ = t.join();
        }
        // The exposition listener polls `shutdown_requested` and exits on
        // its own once it is set (which it is by the time we get here).
        if let Some(m) = self.metrics_listener.take() {
            let _ = m.thread.join();
        }
    }

    /// The shared server state (for the replica apply loop, which must be
    /// able to stop the serving side when catch-up becomes unsafe).
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Dropping the handle stops the server (tests and examples rely
        // on not leaking the accept thread).
        self.shared.request_shutdown();
        self.join_accept();
    }
}

/// Poll `Durability::try_resume_writes` until shutdown: the path out of
/// read-only degraded mode after a disk-full episode. Cheap when the node
/// is healthy (one atomic load per tick).
fn disk_pressure_probe(shared: Arc<Shared>) {
    while !shared.shutdown_requested.load(Ordering::Acquire) {
        if let Some(d) = shared.db.durability() {
            match d.try_resume_writes() {
                Ok(true) => {
                    shared.metrics.counter("server.degraded_recoveries").inc();
                    eprintln!("disk pressure cleared: writes re-enabled");
                }
                Ok(false) => {}
                Err(e) => eprintln!("space probe failed: {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Poll-accept until shutdown is requested, then drain.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown_requested.load(Ordering::Acquire) {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.counter("server.connections_accepted").inc();
                // Every inbound socket passes the `server.accept` fault
                // point; replication connections re-scope themselves to
                // `repl.stream` after the handshake.
                let stream = shared
                    .config
                    .net
                    .wrap(hylite_common::faultnet::NP_SERVER_ACCEPT, stream);
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("hylite-conn".into())
                    .spawn(move || connection::serve_connection(stream, conn_shared));
                match spawned {
                    Ok(handle) => shared.conn_threads.lock().push(handle),
                    Err(_) => {
                        shared.metrics.counter("server.connections_rejected").inc();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    drain(&shared);
}

/// Graceful shutdown: close idle connections, give busy ones until the
/// drain deadline, then fire their cancel tokens, and finally force-close
/// whatever is left before joining all connection threads.
fn drain(shared: &Shared) {
    shared.draining.store(true, Ordering::Release);
    shared.metrics.counter("server.shutdowns").inc();
    let deadline = Instant::now() + shared.config.drain_timeout;

    // Idle connections are parked in a blocking read; closing the socket
    // is the only way to wake them. Busy ones keep running for now.
    for entry in shared.sessions.lock().values() {
        if !entry.busy.load(Ordering::Acquire) {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
    }

    // Drain phase: wait for in-flight statements to finish on their own.
    while Instant::now() < deadline && !shared.sessions.lock().is_empty() {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Cancel stragglers; their statements abort at the next governor
    // check point, the connection sends the Cancelled error frame, sees
    // the draining flag, and exits.
    let mut cancelled = 0u64;
    for entry in shared.sessions.lock().values() {
        entry.cancel.cancel();
        cancelled += 1;
    }
    if cancelled > 0 {
        shared
            .metrics
            .counter("server.shutdown_cancelled_statements")
            .add(cancelled);
        let grace = Instant::now() + Duration::from_secs(2);
        while Instant::now() < grace && !shared.sessions.lock().is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    // Force-close anything still attached.
    for entry in shared.sessions.lock().values() {
        let _ = entry.stream.shutdown(Shutdown::Both);
    }

    let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *shared.conn_threads.lock());
    for t in threads {
        let _ = t.join();
    }

    // Every connection is gone; on a durable database, take a final
    // checkpoint so the next start recovers instantly instead of
    // replaying the whole WAL. A failure here is non-fatal — the WAL
    // already covers every acknowledged commit.
    match shared.db.close() {
        Ok(Some(stats)) => {
            shared.metrics.counter("server.shutdown_checkpoints").inc();
            eprintln!(
                "final checkpoint: {} tables, {} bytes, base lsn {}",
                stats.tables, stats.bytes, stats.base_lsn
            );
        }
        Ok(None) => {}
        Err(e) => eprintln!("final checkpoint failed (WAL still authoritative): {e}"),
    }
}
