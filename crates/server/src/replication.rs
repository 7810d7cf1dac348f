//! Primary-side WAL shipping: stream the redo log to read replicas.
//!
//! A replica opens an ordinary TCP connection and sends a `Replicate`
//! frame instead of `Startup`. The primary answers with either
//!
//! * `ReplicateOk` — the replica's `(epoch, last_lsn)` resume point is
//!   still covered by the local WAL; frames follow from `last_lsn + 1`; or
//! * `SnapshotOffer` — the resume point is unusable (epoch mismatch after
//!   a primary restart, WAL truncated by a checkpoint, or the replica is
//!   *ahead* of this primary, i.e. a fork). The replica must discard its
//!   local state and install the shipped checkpoint image first.
//!
//! After the handshake the primary streams `WalFrame`s **verbatim** —
//! same payload bytes, same CRC as its own WAL — re-verifying each CRC as
//! it reads them back from disk, so a torn or bit-flipped local log can
//! never be forwarded as if it were intact.
//!
//! Flow control is a byte window over unacknowledged frames: a
//! per-connection reader thread consumes `ReplicaAck` frames and advances
//! the acked LSN; once `repl_max_unacked_bytes` of payload is in flight
//! the streamer stops sending, and if the window stays full for
//! `repl_ack_timeout` the replica is **shed** (typed `Overloaded` error,
//! connection closed, `server.replicas_shed` metric) — commits on the
//! primary never wait on a slow replica.

use std::collections::VecDeque;
use std::net::Shutdown;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use hylite_common::faultnet::NP_REPL_STREAM;
use hylite_common::wire::{self, ErrorCode, Frame};
use hylite_common::{NetStream, Result};
use hylite_core::{Durability, ReplTail};

use crate::connection::{admit, refused, Reply};
use crate::server::{ReplStreamStats, Shared};

/// Frames fetched from the WAL per poll (bounds commit-lock hold time).
const TAIL_BATCH_FRAMES: usize = 64;

/// Sleep out the configured poll interval in small slices, waking early
/// when the server starts draining — shutdown must never wait out a
/// long `repl_poll_interval`.
fn poll_sleep(shared: &Shared) {
    let deadline = Instant::now() + shared.config.repl_poll_interval;
    while !shared.is_draining() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(std::time::Duration::from_millis(20)));
    }
}

/// Entry point for a connection whose first frame was `Replicate`: the
/// gate, then the stream until the replica leaves, is shed, or the server
/// drains. A refusal is the connection's one reply.
pub(crate) fn serve_replication(
    stream: &mut NetStream,
    shared: &Shared,
    version: u32,
    replica_epoch: u64,
    last_lsn: u64,
) -> Reply<()> {
    // The Replicate handshake identified this accepted connection as a
    // replica's: report to the streamer's own fault point from here on.
    stream.rescope(NP_REPL_STREAM);
    // Replication connections count against the same connection cap as
    // query sessions: admission control decides who gets a slot, never
    // the commit path.
    let (durability, _slot) = admit(shared, version, "server.replicas_connected", || {
        let Some(durability) = shared.db.durability().cloned() else {
            return refused(
                ErrorCode::Protocol,
                "replication requires a durable primary (start the server with --data-dir)",
            );
        };
        if shared.db.is_replica() {
            return refused(
                ErrorCode::Protocol,
                "this server is itself a replica; replicate from the primary",
            );
        }
        Ok(durability)
    })?;
    // Streaming uses its own pacing; the handshake timeout set by the
    // dispatcher must not fire between polls.
    let _ = stream.set_read_timeout(None);

    // Publish this stream's progress for `hylite.replication` and the
    // repl.lag_* gauges; unregistered again on any exit path.
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    let (stream_id, stats) = shared.register_repl_stream(peer);

    if let Err(e) = stream_to_replica(stream, shared, &durability, replica_epoch, last_lsn, &stats)
    {
        let _ = wire::write_frame(stream, &Frame::error(&e));
    }

    shared.unregister_repl_stream(stream_id);
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// Handshake + streaming loop. Returns `Ok` on orderly exit (peer gone,
/// drain, shed); `Err` only for faults worth reporting to the peer.
fn stream_to_replica(
    stream: &mut NetStream,
    shared: &Shared,
    durability: &Durability,
    replica_epoch: u64,
    last_lsn: u64,
    stats: &ReplStreamStats,
) -> Result<()> {
    let epoch = durability.epoch();
    stats.epoch.store(epoch, Ordering::Release);
    let resume = last_lsn + 1;

    // Decide the start point. A replica from a different incarnation
    // (or one whose resume LSN we cannot serve) is re-bootstrapped; one
    // we can resume gets ReplicateOk and the WAL tail.
    let resumable = replica_epoch == epoch
        && matches!(
            durability.read_replication_tail(resume, 1)?,
            ReplTail::Frames { .. }
        );
    let (mut cursor, mut acked) = if resumable {
        wire::write_frame(
            stream,
            &Frame::ReplicateOk {
                epoch,
                next_lsn: durability.next_lsn(),
            },
        )?;
        (resume, last_lsn)
    } else {
        let start = send_bootstrap(stream, shared, durability, epoch)?;
        stats.bootstraps.fetch_add(1, Ordering::AcqRel);
        start
    };
    stats
        .sent_lsn
        .store(cursor.saturating_sub(1), Ordering::Release);
    stats.acked_lsn.store(acked, Ordering::Release);

    // Ack reader: a second thread consuming ReplicaAck frames from the
    // same socket, publishing the high-water mark for the flow-control
    // window. The socket shutdown at the end of streaming unblocks it.
    let ack_lsn = Arc::new(AtomicU64::new(acked));
    let mut ack_stream = stream
        .try_clone()
        .map_err(|e| hylite_common::HyError::Internal(format!("socket clone failed: {e}")))?;
    let ack_thread = {
        let ack_lsn = Arc::clone(&ack_lsn);
        std::thread::Builder::new()
            .name("hylite-repl-ack".into())
            .spawn(move || {
                while let Ok(Frame::ReplicaAck { lsn }) = wire::read_frame(&mut ack_stream) {
                    ack_lsn.fetch_max(lsn, Ordering::AcqRel);
                }
            })
            .map_err(|e| hylite_common::HyError::Internal(format!("spawn failed: {e}")))?
    };

    // (lsn, payload bytes) of sent-but-unacked frames, oldest first.
    let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
    let mut unacked_bytes = 0u64;
    let mut last_ack_progress = Instant::now();
    let result = loop {
        if shared.is_draining() {
            break Ok(());
        }
        // Retire everything the replica has durably applied.
        let a = ack_lsn.load(Ordering::Acquire);
        if a > acked {
            acked = a;
            last_ack_progress = Instant::now();
            while in_flight.front().is_some_and(|&(lsn, _)| lsn <= acked) {
                let (_, bytes) = in_flight.pop_front().expect("front checked");
                unacked_bytes = unacked_bytes.saturating_sub(bytes);
            }
            stats.acked_lsn.store(acked, Ordering::Release);
            stats.unacked_bytes.store(unacked_bytes, Ordering::Release);
        }
        if unacked_bytes >= shared.config.repl_max_unacked_bytes {
            if last_ack_progress.elapsed() >= shared.config.repl_ack_timeout {
                // Slow replica: shed it rather than buffering without
                // bound or stalling anything on the primary.
                shared.metrics.counter("server.replicas_shed").inc();
                break Err(hylite_common::HyError::Unavailable(format!(
                    "replication ack window ({} bytes) stalled for {:?}; shedding replica",
                    shared.config.repl_max_unacked_bytes, shared.config.repl_ack_timeout
                )));
            }
            poll_sleep(shared);
            continue;
        }
        match durability.read_replication_tail(cursor, TAIL_BATCH_FRAMES)? {
            ReplTail::Frames { frames, .. } => {
                if frames.is_empty() {
                    // Caught up; poll for new commits.
                    poll_sleep(shared);
                    continue;
                }
                let mut write_failed = false;
                for frame in frames {
                    let bytes = frame.payload.len() as u64;
                    let lsn = frame.lsn;
                    if wire::write_frame(
                        stream,
                        &Frame::WalFrame {
                            lsn,
                            crc: frame.crc,
                            payload: frame.payload,
                        },
                    )
                    .is_err()
                    {
                        write_failed = true;
                        break;
                    }
                    shared.metrics.counter("server.wal_frames_sent").inc();
                    shared.metrics.counter("server.wal_bytes_sent").add(bytes);
                    cursor = lsn + 1;
                    in_flight.push_back((lsn, bytes));
                    unacked_bytes += bytes;
                    stats.sent_lsn.store(lsn, Ordering::Release);
                    stats.unacked_bytes.store(unacked_bytes, Ordering::Release);
                }
                if write_failed {
                    break Ok(()); // peer went away
                }
            }
            ReplTail::NeedSnapshot => {
                // A local checkpoint truncated the frames the replica
                // still needs; re-bootstrap in place. The replica
                // handles SnapshotOffer at any point in the stream.
                match send_bootstrap(stream, shared, durability, epoch) {
                    Ok((c, a)) => {
                        cursor = c;
                        acked = a;
                        ack_lsn.store(a, Ordering::Release);
                        in_flight.clear();
                        unacked_bytes = 0;
                        last_ack_progress = Instant::now();
                        stats.bootstraps.fetch_add(1, Ordering::AcqRel);
                        stats.sent_lsn.store(c.saturating_sub(1), Ordering::Release);
                        stats.acked_lsn.store(a, Ordering::Release);
                        stats.unacked_bytes.store(0, Ordering::Release);
                    }
                    Err(_) => break Ok(()), // peer went away
                }
            }
            ReplTail::Diverged { next_lsn } => {
                // Same epoch but the replica claims commits this primary
                // never made — a fork. Never stream over it.
                break Err(hylite_common::HyError::Storage(format!(
                    "replica resume lsn {cursor} is ahead of the primary's log (next lsn \
                     {next_lsn}); diverged history, re-bootstrap required"
                )));
            }
        }
    };
    // Wake and join the ack reader before the caller reports any error:
    // its socket clone dies with this shutdown.
    let _ = stream.shutdown(Shutdown::Read);
    let _ = ack_thread.join();
    result
}

/// Snapshot the committed state and offer it to the replica. Returns the
/// `(cursor, acked)` pair streaming continues from.
fn send_bootstrap(
    stream: &mut NetStream,
    shared: &Shared,
    durability: &Durability,
    epoch: u64,
) -> Result<(u64, u64)> {
    let (base_lsn, data) = durability.bootstrap_snapshot(shared.db.catalog())?;
    wire::write_frame(
        stream,
        &Frame::SnapshotOffer {
            epoch,
            base_lsn,
            data,
        },
    )?;
    shared
        .metrics
        .counter("server.replica_bootstraps_sent")
        .inc();
    Ok((base_lsn, base_lsn.saturating_sub(1)))
}
