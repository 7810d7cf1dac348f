//! What the server answers to every kind of first frame, and what the
//! public client functions return for the same requests, pinned.
//!
//! Each case opens a raw socket to a fresh server, sends one first frame
//! and records the `{:?}` of the reply frame, then the server's
//! connection counters and gauges once its connections have closed. The
//! record is `tests/golden/wire_replies.txt`, captured at 5720386 with the
//! `#[ignore]`d printer below; `session_id`, `secret`, `epoch` and `lsn`
//! values are masked (they are random or depend on timing).
//!
//! Draining is left out: whether a connection meets the drain or the
//! closed listener is a race (`draining_server_refuses_new_sessions` in
//! `tests/server.rs` covers it).

use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hylite_client::HyliteClient;
use hylite_common::faultfs::{FaultVfs, Vfs};
use hylite_common::wire::{self, Frame, PROTOCOL_VERSION};
use hylite_common::HyError;
use hylite_core::{Database, DurabilityOptions, ReplRole};
use hylite_server::{Replica, ReplicaConfig, ReplicaHandle, Server, ServerConfig, ServerHandle};

/// A server over a database, kept alive for the length of a case.
struct Node {
    db: Arc<Database>,
    addr: SocketAddr,
    _serving: Box<dyn std::any::Any>,
}

fn serve(db: Database, max_connections: usize) -> Node {
    let db = Arc::new(db);
    let config = ServerConfig {
        max_connections,
        ..ServerConfig::ephemeral()
    };
    let handle: ServerHandle = Server::start(config, Arc::clone(&db)).unwrap();
    Node {
        addr: handle.local_addr(),
        db,
        _serving: Box::new(handle),
    }
}

fn open_durable(role: ReplRole) -> Database {
    let options = DurabilityOptions {
        role,
        ..DurabilityOptions::default()
    };
    let vfs = Arc::new(FaultVfs::new()) as Arc<dyn Vfs>;
    Database::open_with(vfs, std::path::Path::new("data"), options).unwrap()
}

/// An in-memory (non-durable) server.
fn plain(max_connections: usize) -> Node {
    serve(Database::new(), max_connections)
}

/// A durable primary on an in-memory file system.
fn durable(max_connections: usize) -> Node {
    serve(open_durable(ReplRole::Primary), max_connections)
}

/// A replica following a durable primary; the primary is kept alive
/// with it.
fn replica() -> Node {
    let primary = durable(64);
    let db = Arc::new(open_durable(ReplRole::Replica));
    let mut config = ReplicaConfig::new(primary.addr.to_string());
    config.retry.initial_backoff = Duration::from_millis(2);
    config.retry.max_backoff = Duration::from_millis(20);
    let handle: ReplicaHandle =
        Replica::start(Arc::clone(&db), ServerConfig::ephemeral(), config).unwrap();
    Node {
        addr: handle.local_addr(),
        db,
        _serving: Box::new((handle, primary)),
    }
}

/// Replace the digits after `key: ` for every masked key.
fn mask(text: String) -> String {
    let mut out = text;
    for key in ["session_id", "secret", "epoch", "lsn"] {
        let pattern = format!("{key}: ");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pattern) {
            let start = from + at;
            let digits = start + pattern.len();
            let end = out[digits..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(out.len(), |n| digits + n);
            let whole_word = !out[..start].ends_with(|c: char| c.is_alphanumeric() || c == '_');
            if whole_word && end > digits {
                out.replace_range(digits..end, "_");
            }
            from = digits;
        }
    }
    out
}

/// Send `frames` on a fresh raw socket; the `{:?}` of the last reply.
fn reply(addr: SocketAddr, frames: impl IntoIterator<Item = Frame>) -> String {
    let mut socket = TcpStream::connect(addr).unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut last = None;
    for frame in frames {
        wire::write_frame(&mut socket, &frame).unwrap();
        last = Some(wire::read_frame(&mut socket));
    }
    mask(format!("{:?}", last.expect("at least one frame")))
}

/// The connection counters and gauges, read once every connection the
/// case opened has been released (bounded wait).
fn metrics(db: &Database) -> String {
    let m = db.metrics();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline
        && (m.gauge("server.connections_active").get() != 0
            || m.gauge("server.replicas_connected").get() != 0)
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    format!(
        "connections_rejected={} connections_active={} replicas_connected={} \
         promotions={} repoints={} backups={}",
        m.counter("server.connections_rejected").get(),
        m.gauge("server.connections_active").get(),
        m.gauge("server.replicas_connected").get(),
        m.counter("server.promotions").get(),
        m.counter("server.repoints").get(),
        m.counter("server.backups").get(),
    )
}

fn startup(version: u32) -> Frame {
    Frame::Startup { version }
}

fn replicate(version: u32) -> Frame {
    Frame::Replicate {
        version,
        epoch: 0,
        last_lsn: 0,
    }
}

/// One line per first-frame case: its name, the reply, the metrics.
fn first_frame_replies() -> Vec<String> {
    let mut lines = Vec::new();
    let mut record = |name: &str, node: &Node, reply: String| {
        lines.push(format!("{name}: {reply}"));
        lines.push(format!("  {}", metrics(&node.db)));
    };
    let v1 = PROTOCOL_VERSION;

    let node = plain(64);
    record("Startup v2", &node, reply(node.addr, [startup(2)]));

    let node = plain(1);
    let holder = HyliteClient::connect(node.addr).unwrap();
    let r = reply(node.addr, [startup(v1)]);
    drop(holder);
    record("Startup over the cap", &node, r);

    let node = durable(64);
    record("Replicate v2", &node, reply(node.addr, [replicate(2)]));

    let node = plain(64);
    record(
        "Replicate non-durable",
        &node,
        reply(node.addr, [replicate(v1)]),
    );

    let node = replica();
    record(
        "Replicate to a replica",
        &node,
        reply(node.addr, [replicate(v1)]),
    );
    let repoint = Frame::Repoint {
        primary_addr: "127.0.0.1:1".into(),
    };
    record(
        "Repoint on a replica",
        &node,
        reply(node.addr, [repoint.clone()]),
    );
    record(
        "Promote on a replica",
        &node,
        reply(node.addr, [Frame::Promote]),
    );

    let node = durable(1);
    let holder = HyliteClient::connect(node.addr).unwrap();
    let r = reply(node.addr, [replicate(v1)]);
    drop(holder);
    record("Replicate over the cap", &node, r);

    let node = plain(64);
    record(
        "Promote non-durable",
        &node,
        reply(node.addr, [Frame::Promote]),
    );

    let node = durable(64);
    record(
        "Promote durable primary",
        &node,
        reply(node.addr, [Frame::Promote]),
    );
    record("Repoint on a primary", &node, reply(node.addr, [repoint]));

    let node = plain(64);
    let backup = Frame::Backup {
        dir: "backup".into(),
        base: None,
        verify: false,
    };
    record("Backup non-durable", &node, reply(node.addr, [backup]));
    let query = Frame::Query {
        sql: "SELECT 1".into(),
    };
    record("Query first", &node, reply(node.addr, [query]));
    let session = HyliteClient::connect(node.addr).unwrap();
    let cancel = Frame::Cancel {
        session_id: session.session_id(),
        secret: 0x5EC2E7,
    };
    let r = reply(node.addr, [cancel.clone()]);
    session.close().unwrap();
    record("Cancel wrong secret", &node, r);
    record(
        "Cancel inside a session",
        &node,
        reply(node.addr, [startup(v1), cancel]),
    );
    record("Shutdown", &node, reply(node.addr, [Frame::Shutdown]));
    lines
}

/// What a client function returned: the `HyError` variant and message,
/// or the (masked) success.
fn outcome<T: std::fmt::Debug>(result: Result<T, HyError>) -> String {
    mask(format!("{result:?}"))
}

/// One line per public client function and case.
fn client_returns() -> Vec<String> {
    let mut lines = Vec::new();

    let node = plain(1);
    let mut holder = HyliteClient::connect(node.addr).unwrap();
    lines.push(format!(
        "connect over the cap: {}",
        outcome(HyliteClient::connect(node.addr).map(|_| ()))
    ));
    let query = holder.query("SELEC 1").map(|_| ());
    lines.push(format!(
        "query parse error: {} last_error_code={:?}",
        outcome(query),
        holder.last_error_code()
    ));
    lines.push(format!(
        "CancelHandle::cancel live session: {} last_error_code={:?}",
        outcome(holder.cancel_handle().cancel()),
        holder.last_error_code()
    ));
    drop(holder);

    let node_plain = plain(64);
    let node_durable = durable(64);
    let promote = |addr| {
        hylite_client::request_promote(addr)
            .map(|(epoch, lsn)| format!("epoch: {epoch} lsn: {lsn}"))
    };
    lines.push(format!(
        "request_promote non-durable: {}",
        outcome(promote(node_plain.addr))
    ));
    lines.push(format!(
        "request_promote durable primary: {}",
        outcome(promote(node_durable.addr))
    ));
    lines.push(format!(
        "request_repoint primary: {}",
        outcome(hylite_client::request_repoint(
            node_durable.addr,
            "127.0.0.1:1"
        ))
    ));
    lines.push(format!(
        "request_backup non-durable: {}",
        outcome(hylite_client::request_backup(
            node_plain.addr,
            "backup",
            None,
            false
        ))
    ));

    let node = replica();
    lines.push(format!(
        "request_repoint replica: {}",
        outcome(hylite_client::request_repoint(node.addr, "127.0.0.1:1"))
    ));
    lines.push(format!(
        "request_promote replica: {}",
        outcome(promote(node.addr))
    ));
    lines.push(format!(
        "request_shutdown: {}",
        outcome(hylite_client::request_shutdown(node_plain.addr))
    ));
    lines
}

fn golden_lines() -> Vec<String> {
    let mut lines = first_frame_replies();
    lines.extend(client_returns());
    lines
}

/// `cargo test --test wire_replies -- --ignored --nocapture print_wire`
/// at the commit whose replies are to be pinned.
#[test]
#[ignore = "prints the golden; run it by name"]
fn print_wire_replies_for_the_golden() {
    for line in golden_lines() {
        println!("{line}");
    }
}

#[test]
fn every_first_frame_gets_the_reply_it_got_at_the_parent() {
    let want: Vec<&str> = include_str!("golden/wire_replies.txt").lines().collect();
    let got = golden_lines();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "a golden line per reply");
}
