//! The replica: follow a primary's WAL stream and serve read-only SQL.
//!
//! [`Replica::start`] wraps an ordinary [`Server`] (so replicas speak the
//! full query protocol — sessions, cancel, admission control, metrics)
//! around a database opened in the replica role, and runs an **apply
//! loop** on its own thread:
//!
//! 1. connect to the primary and send `Replicate { epoch, last_lsn }`,
//!    where `last_lsn` is the last commit the local WAL holds durably;
//! 2. install a `SnapshotOffer` if the primary sends one (discarding all
//!    local state — divergence is never streamed over), else resume from
//!    `ReplicateOk`;
//! 3. apply each `WalFrame` through the normal redo path — CRC
//!    re-verified, LSN required to be exactly contiguous, fsynced into
//!    the local WAL **before** the `ReplicaAck` goes back, so an acked
//!    LSN survives a replica `kill -9`;
//! 4. on any connection error, reconnect with the client crate's
//!    jittered exponential backoff and resume from the new `last_lsn`.
//!
//! Failure philosophy: network faults are routine and retried forever;
//! **local** faults (a poisoned WAL, a failed bootstrap install) mean the
//! replica can no longer promise convergence, so it stops serving
//! entirely (`ReplicaHandle::has_failed`) rather than answering queries
//! from a state it cannot vouch for.
//!
//! Writes sent to a replica session are rejected before binding with the
//! retryable [`ErrorCode::ReadOnlyReplica`](hylite_common::wire::ErrorCode)
//! error, whose message names the primary's address.

use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use hylite_client::RetryPolicy;
use hylite_common::faultnet::NP_REPL_APPLY;
use hylite_common::sysview::{SystemView, SystemViewProvider};
use hylite_common::wire::{self, ErrorCode, Frame, PROTOCOL_VERSION};
use hylite_common::{HyError, NetHandle, Result, Value};
use hylite_core::{Database, Durability};
use parking_lot::Mutex;

use crate::config::ServerConfig;
use crate::server::{Server, ServerHandle, Shared};

/// Tunables of the replica's apply loop.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address of the primary to replicate from, e.g. `127.0.0.1:5433`.
    pub primary_addr: String,
    /// Backoff schedule for reconnecting to the primary. Unlike a client
    /// statement retry the replica never gives up: `max_attempts` and
    /// `deadline` are ignored, only the backoff curve is used.
    pub retry: RetryPolicy,
    /// Seed for deterministic backoff jitter (tests fix this).
    pub backoff_seed: u64,
    /// Take a local checkpoint once the replica's WAL grows past this
    /// many durable bytes, so replica restarts recover from a recent
    /// image instead of replaying the whole stream. `0` disables.
    pub checkpoint_wal_bytes: u64,
    /// Transport for the apply loop's outbound connection to the primary
    /// (the `repl.apply` fault point). Defaults to the real network.
    pub net: NetHandle,
}

impl ReplicaConfig {
    /// Defaults for a replica following `primary_addr`.
    pub fn new(primary_addr: impl Into<String>) -> ReplicaConfig {
        ReplicaConfig {
            primary_addr: primary_addr.into(),
            retry: RetryPolicy::default(),
            backoff_seed: 0x005E_ED0F_5EED,
            checkpoint_wal_bytes: 8 * 1024 * 1024,
            net: NetHandle::default(),
        }
    }
}

/// Shared, lock-free view of the apply loop's progress.
#[derive(Debug, Default)]
pub struct ReplicaStatus {
    connected: AtomicBool,
    last_applied_lsn: AtomicU64,
    bootstraps: AtomicU64,
    failed: AtomicBool,
    /// Unix seconds of the last applied frame or installed snapshot
    /// (`0` = nothing applied this process lifetime).
    last_apply_unix: AtomicU64,
}

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl ReplicaStatus {
    /// Whether the apply loop currently holds a connection to the primary.
    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Acquire)
    }

    /// LSN of the last commit durably applied from the stream (`0` =
    /// nothing yet this process lifetime).
    pub fn last_applied_lsn(&self) -> u64 {
        self.last_applied_lsn.load(Ordering::Acquire)
    }

    /// How many times this replica discarded local state for a primary
    /// snapshot.
    pub fn bootstraps(&self) -> u64 {
        self.bootstraps.load(Ordering::Acquire)
    }

    /// True once the replica hit a local fault it cannot recover from
    /// (it has stopped serving).
    pub fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Seconds since the stream last made durable progress, or `None` if
    /// nothing has been applied this process lifetime. A caught-up
    /// replica's staleness keeps growing while the primary is idle — it
    /// measures *stream silence*, not divergence.
    pub fn staleness_seconds(&self) -> Option<u64> {
        let last = self.last_apply_unix.load(Ordering::Acquire);
        (last > 0).then(|| unix_now().saturating_sub(last))
    }

    fn mark_applied(&self, lsn: u64) {
        self.last_applied_lsn.store(lsn, Ordering::Release);
        self.last_apply_unix.store(unix_now(), Ordering::Release);
    }
}

/// Control surface shared by the apply loop, the [`ReplicaHandle`], and
/// the failover hooks the embedded server's admin frames call into.
struct ApplyControl {
    /// Stop the apply loop (shutdown or in-place promotion).
    stop: AtomicBool,
    /// True while the apply loop is running; a promotion waits for it to
    /// clear before flipping the role, so no replicated frame can land
    /// after the flip.
    running: AtomicBool,
    /// The primary currently being followed. A `Repoint` rewrites it;
    /// the loop re-reads it on every (re)connect.
    primary_addr: Mutex<String>,
    /// Bumped on every repoint so a loop stuck in reconnect backoff
    /// abandons the sleep and tries the new address immediately.
    generation: AtomicU64,
    /// Reconnect attempt counter for the backoff curve; reset on any
    /// stream progress and on repoint.
    retry: AtomicU32,
    /// Socket of the current streaming session, for unblocking its
    /// blocking read from the outside.
    current: Mutex<Option<TcpStream>>,
}

impl ApplyControl {
    fn kick_current(&self) {
        if let Some(s) = self.current.lock().as_ref() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The failover hooks a replica registers on its embedded server, so the
/// admin frames (`Promote`, `Repoint`) drive the apply loop and the
/// durability layer without restarting the process.
pub(crate) struct Failover {
    control: Arc<ApplyControl>,
    status: Arc<ReplicaStatus>,
}

/// How long a promotion waits for the apply loop to wind down before
/// giving up (it only has to finish applying at most one frame).
const PROMOTE_STOP_DEADLINE: Duration = Duration::from_secs(10);

impl Failover {
    /// Stop following the primary and flip this node to a writable
    /// primary in place; returns the fresh epoch.
    pub(crate) fn promote(&self, shared: &Shared) -> Result<u64> {
        if self.status.has_failed() {
            return Err(HyError::Storage(
                "this replica hit a local fault and cannot vouch for its state; \
                 promote a healthy node instead"
                    .into(),
            ));
        }
        // Stop following first: the apply loop must be fully out before
        // the role flips, so no replicated frame lands on a primary.
        self.control.stop.store(true, Ordering::Release);
        self.control.kick_current();
        let deadline = Instant::now() + PROMOTE_STOP_DEADLINE;
        while self.control.running.load(Ordering::Acquire) {
            if Instant::now() > deadline {
                return Err(HyError::Internal(
                    "the apply loop did not stop within the promotion deadline".into(),
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let durability = shared.db.durability().expect("replica database is durable");
        let epoch = durability.promote_to_primary()?;
        // New sessions are writable from here on; existing read-only
        // sessions keep their redirect until the client reconnects.
        shared.set_writable();
        Ok(epoch)
    }

    /// Start following a different primary address.
    pub(crate) fn repoint(&self, shared: &Shared, primary_addr: &str) -> Result<()> {
        if self.control.stop.load(Ordering::Acquire) {
            return Err(HyError::Unavailable(
                "this node is no longer following a primary (stopped or promoted)".into(),
            ));
        }
        *self.control.primary_addr.lock() = primary_addr.to_owned();
        self.control.retry.store(0, Ordering::Release);
        self.control.generation.fetch_add(1, Ordering::AcqRel);
        shared.set_read_only_primary(primary_addr);
        // Kill the current stream (if any) so the loop reconnects to the
        // new address; epoch fencing there decides resume vs re-bootstrap.
        self.control.kick_current();
        Ok(())
    }
}

/// The replica's [`SystemViewProvider`]: contributes this node's single
/// self-row to `hylite.replication` (the primary's provider contributes
/// the per-stream rows on the other side of the wire).
struct ReplicaViews {
    status: Arc<ReplicaStatus>,
    durability: Arc<Durability>,
    control: Arc<ApplyControl>,
    metrics: Arc<hylite_common::MetricsRegistry>,
}

impl SystemViewProvider for ReplicaViews {
    fn system_view_rows(&self, view: SystemView) -> Option<Vec<Vec<Value>>> {
        if view != SystemView::Replication {
            return None;
        }
        if self.durability.role() != hylite_core::ReplRole::Replica {
            // Promoted in place: the server's own provider reports the
            // primary-side rows now; no stale self-row.
            return Some(Vec::new());
        }
        let state = if self.status.has_failed() {
            "failed"
        } else if self.status.is_connected() {
            "streaming"
        } else {
            "disconnected"
        };
        let primary_addr = self.control.primary_addr.lock().clone();
        Some(vec![vec![
            Value::from("replica"),
            Value::from(primary_addr.as_str()),
            Value::from(state),
            Value::Int(self.durability.epoch() as i64),
            Value::Null, // sent_lsn is the primary's side of the ledger
            Value::Int(self.status.last_applied_lsn() as i64),
            Value::Null, // lag in frames/bytes is only known on the primary
            Value::Null,
            Value::Int(self.status.bootstraps() as i64),
            match self.status.staleness_seconds() {
                Some(s) => Value::Int(s as i64),
                None => Value::Null,
            },
            Value::from(self.durability.node_state()),
            Value::Int(self.metrics.counter("repl.reconnects").get() as i64),
            Value::Int(self.metrics.counter("repl.rebootstraps").get() as i64),
        ]])
    }
}

/// The replica entry point; see the module docs.
pub struct Replica;

impl Replica {
    /// Start serving `db` read-only while following the primary in
    /// `config`. `db` must have been opened in the replica role
    /// ([`DurabilityOptions::role`](hylite_core::DurabilityOptions)).
    pub fn start(
        db: Arc<Database>,
        mut server_config: ServerConfig,
        config: ReplicaConfig,
    ) -> Result<ReplicaHandle> {
        if !db.is_replica() {
            return Err(HyError::Storage(
                "Replica::start requires a database opened in the replica role \
                 (DurabilityOptions { role: ReplRole::Replica, .. })"
                    .into(),
            ));
        }
        server_config.read_only_primary = Some(config.primary_addr.clone());
        let server = Server::start(server_config, Arc::clone(&db))?;
        let local_addr = server.local_addr();
        let server_shared = server.shared();
        let status = Arc::new(ReplicaStatus::default());
        let control = Arc::new(ApplyControl {
            stop: AtomicBool::new(false),
            // Set before the thread spawns so a promotion arriving right
            // after startup still waits for the loop to exit.
            running: AtomicBool::new(true),
            primary_addr: Mutex::new(config.primary_addr.clone()),
            generation: AtomicU64::new(0),
            retry: AtomicU32::new(0),
            current: Mutex::new(None),
        });
        // This node's self-row in `hylite.replication`; the hub holds it
        // weakly, the handle keeps it alive for the replica's lifetime.
        // Touch the churn counters so they exist in a scrape (and in
        // `hylite.metrics`) from the first connect, not the first fault.
        db.metrics().counter("repl.reconnects").add(0);
        db.metrics().counter("repl.rebootstraps").add(0);
        let views = Arc::new(ReplicaViews {
            status: Arc::clone(&status),
            durability: Arc::clone(db.durability().expect("replica database is durable")),
            control: Arc::clone(&control),
            metrics: Arc::clone(db.metrics()),
        });
        db.system_views()
            .register(Arc::downgrade(&views) as std::sync::Weak<dyn SystemViewProvider>);
        // Wire the admin frames (Promote / Repoint) into this apply loop.
        let failover = Failover {
            control: Arc::clone(&control),
            status: Arc::clone(&status),
        };
        let _ = server_shared.failover.set(failover);
        let apply_thread = {
            let db = Arc::clone(&db);
            let control = Arc::clone(&control);
            let status = Arc::clone(&status);
            std::thread::Builder::new()
                .name("hylite-repl-apply".into())
                .spawn(move || apply_loop(&db, &config, &control, &status, &server_shared))
                .map_err(|e| HyError::Internal(format!("spawning apply loop failed: {e}")))?
        };
        Ok(ReplicaHandle {
            server: Some(server),
            control,
            status,
            apply_thread: Some(apply_thread),
            local_addr,
            _views: views,
        })
    }
}

/// Handle to a running replica: the serving side plus the apply loop.
pub struct ReplicaHandle {
    server: Option<ServerHandle>,
    control: Arc<ApplyControl>,
    status: Arc<ReplicaStatus>,
    apply_thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
    /// Keeps this node's `hylite.replication` self-row registered.
    _views: Arc<ReplicaViews>,
}

impl ReplicaHandle {
    /// The address read-only clients connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The apply loop's progress view.
    pub fn status(&self) -> &Arc<ReplicaStatus> {
        &self.status
    }

    /// Address of the Prometheus exposition endpoint, when configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().and_then(|s| s.metrics_addr())
    }

    /// Stop following the primary and shut the serving side down
    /// gracefully (in-flight reads drain; a final local checkpoint is
    /// taken).
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    /// Block until the serving side stops on its own (a client sent a
    /// Shutdown frame, or catch-up failed permanently), then stop
    /// following the primary. The `--replica-of` binary's main loop.
    pub fn join(mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.control.stop.store(true, Ordering::Release);
        // Unblock the apply loop's blocking read.
        self.control.kick_current();
        if let Some(t) = self.apply_thread.take() {
            let _ = t.join();
        }
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Why one streaming session ended.
enum SessionEnd {
    /// Shutdown was requested; exit the loop.
    Stopped,
    /// Connection-level failure: reconnect with backoff.
    Disconnect,
    /// Local storage failure or a fork the protocol cannot repair:
    /// stop serving.
    Fatal(HyError),
}

/// Reconnect-forever loop around [`stream_session`].
fn apply_loop(
    db: &Arc<Database>,
    config: &ReplicaConfig,
    control: &ApplyControl,
    status: &ReplicaStatus,
    server_shared: &Arc<crate::server::Shared>,
) {
    let durability = Arc::clone(db.durability().expect("replica database is durable"));
    let metrics = Arc::clone(db.metrics());
    let mut ever_connected = false;
    while !control.stop.load(Ordering::Acquire) {
        let generation = control.generation.load(Ordering::Acquire);
        let end = stream_session(
            db,
            &durability,
            config,
            control,
            status,
            &mut ever_connected,
        );
        status.connected.store(false, Ordering::Release);
        control.current.lock().take();
        match end {
            SessionEnd::Stopped => break,
            SessionEnd::Disconnect => {
                if control.stop.load(Ordering::Acquire) {
                    break;
                }
                metrics.counter("repl.disconnects").inc();
                // Capped exponential backoff with deterministic jitter;
                // sliced so shutdown stays responsive and a repoint (new
                // generation) reconnects immediately.
                let retry = control.retry.fetch_add(1, Ordering::AcqRel);
                let backoff = config
                    .retry
                    .jittered_backoff(retry.min(16), config.backoff_seed);
                let deadline = std::time::Instant::now() + backoff;
                while std::time::Instant::now() < deadline
                    && !control.stop.load(Ordering::Acquire)
                    && control.generation.load(Ordering::Acquire) == generation
                {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            SessionEnd::Fatal(e) => {
                // The local state can no longer be vouched for: refuse to
                // serve rather than answer from a possibly-forked past.
                metrics.counter("repl.fatal_errors").inc();
                status.failed.store(true, Ordering::Release);
                eprintln!("replica catch-up failed permanently, shutting down: {e}");
                server_shared.request_shutdown();
                break;
            }
        }
    }
    control.running.store(false, Ordering::Release);
}

/// One connected streaming session: handshake, then apply frames until
/// the connection drops or shutdown is requested.
fn stream_session(
    db: &Arc<Database>,
    durability: &Arc<Durability>,
    config: &ReplicaConfig,
    control: &ApplyControl,
    status: &ReplicaStatus,
    ever_connected: &mut bool,
) -> SessionEnd {
    let primary_addr = control.primary_addr.lock().clone();
    let mut stream = match config
        .net
        .connect(NP_REPL_APPLY, &primary_addr, Duration::from_secs(10))
    {
        Ok(s) => s,
        Err(_) => return SessionEnd::Disconnect,
    };
    let _ = stream.set_nodelay(true);
    // The kick path only ever calls `shutdown`: keep a raw clone so a
    // scripted partition can never block promotion or shutdown.
    match stream.raw_try_clone() {
        Ok(clone) => *control.current.lock() = Some(clone),
        Err(_) => return SessionEnd::Disconnect,
    }
    // Resume point: the local WAL's next LSN minus one is the last commit
    // that is durably ours. An un-bootstrapped replica sends epoch 0,
    // which no primary ever mints, forcing a SnapshotOffer.
    let handshake = Frame::Replicate {
        version: PROTOCOL_VERSION,
        epoch: durability.epoch(),
        last_lsn: durability.next_lsn().saturating_sub(1),
    };
    if wire::write_frame(&mut stream, &handshake).is_err() {
        return SessionEnd::Disconnect;
    }
    status.connected.store(true, Ordering::Release);
    db.metrics().counter("repl.connects").inc();
    if *ever_connected {
        // Re-established after a drop: the churn signal `\lag` watches.
        db.metrics().counter("repl.reconnects").inc();
    }
    *ever_connected = true;

    loop {
        if control.stop.load(Ordering::Acquire) {
            return SessionEnd::Stopped;
        }
        let frame = match wire::read_frame(&mut stream).map(wire::reply_or_error) {
            Ok(Ok(f)) => f,
            // Version mismatch, a non-durable primary, or a primary that
            // is itself a replica: config errors no amount of retrying
            // fixes.
            Ok(Err((ErrorCode::Protocol, e))) => return SessionEnd::Fatal(e),
            // Everything else — shedding, draining, or a primary-side
            // storage failure (e.g. its WAL poisoned by a crash) — is the
            // *primary's* trouble, not a statement about our local state.
            // Back off and reconnect; if the primary restarts, its fresh
            // epoch fences us into a re-bootstrap anyway.
            Ok(Err(_)) => return SessionEnd::Disconnect,
            Err(_) if control.stop.load(Ordering::Acquire) => return SessionEnd::Stopped,
            Err(_) => return SessionEnd::Disconnect,
        };
        match frame {
            Frame::ReplicateOk { .. } => {
                // Resume accepted; frames follow from our own last_lsn+1.
                control.retry.store(0, Ordering::Release);
            }
            Frame::SnapshotOffer {
                epoch,
                base_lsn,
                data,
            } => {
                // Replace all local state under the writer gate so no
                // read session observes the swap half-done.
                let install = {
                    let _gate = db.catalog().writer_gate().lock();
                    durability.install_bootstrap(db.catalog(), epoch, &data)
                };
                if let Err(e) = install {
                    return SessionEnd::Fatal(e);
                }
                control.retry.store(0, Ordering::Release);
                let prior = status.bootstraps.fetch_add(1, Ordering::AcqRel);
                if prior > 0 {
                    // Any bootstrap after the first means fencing or WAL
                    // truncation forced a full re-seed.
                    db.metrics().counter("repl.rebootstraps").inc();
                }
                status.mark_applied(base_lsn.saturating_sub(1));
                db.metrics()
                    .gauge("repl.applied_lsn")
                    .set(base_lsn.saturating_sub(1) as i64);
                if wire::write_frame(
                    &mut stream,
                    &Frame::ReplicaAck {
                        lsn: base_lsn.saturating_sub(1),
                    },
                )
                .is_err()
                {
                    return SessionEnd::Disconnect;
                }
            }
            Frame::WalFrame { lsn, crc, payload } => {
                let applied = {
                    let _gate = db.catalog().writer_gate().lock();
                    durability.apply_replicated_frame(db.catalog(), lsn, crc, &payload)
                };
                if let Err(e) = applied {
                    if matches!(e, HyError::DiskFull(_)) {
                        // A full local disk is transient, not a fork: the
                        // frame was never acked, so once space frees (the
                        // probe un-degrades the node) the stream resumes
                        // from the same LSN. Back off and reconnect.
                        return SessionEnd::Disconnect;
                    }
                    // A gap, CRC mismatch, or WAL write failure on *our*
                    // side: never ack, never skip. The stream cannot be
                    // trusted past this point.
                    return SessionEnd::Fatal(e);
                }
                control.retry.store(0, Ordering::Release);
                status.mark_applied(lsn);
                db.metrics().gauge("repl.applied_lsn").set(lsn as i64);
                // The frame is fsynced (append_raw_frame always flushes)
                // — only now may the ack promise durability.
                if wire::write_frame(&mut stream, &Frame::ReplicaAck { lsn }).is_err() {
                    return SessionEnd::Disconnect;
                }
                if config.checkpoint_wal_bytes > 0
                    && durability.wal_durable_len() >= config.checkpoint_wal_bytes
                {
                    // Compact the local WAL; failure is non-fatal (the
                    // WAL still covers everything).
                    let _ = durability.checkpoint(db.catalog());
                }
            }
            other => {
                return SessionEnd::Fatal(HyError::Protocol(format!(
                    "unexpected frame in the replication stream: {other:?}"
                )))
            }
        }
    }
}
