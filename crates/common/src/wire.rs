//! The HyLite wire protocol: length-prefixed binary frames carrying SQL
//! in and columnar results out.
//!
//! Layout of every frame on the wire:
//!
//! ```text
//! [u32 length LE] [u8 tag] [payload ...]
//! ```
//!
//! where `length` counts the tag byte plus the payload. Results stream as
//! one [`Frame::ResultSchema`] followed by zero or more
//! [`Frame::DataChunk`] frames and a closing [`Frame::CommandComplete`],
//! so a server never has to materialize a full row-set to answer a query —
//! each chunk is encoded and written as soon as the engine produces it.
//!
//! Integers are little-endian; strings are `u32` length + UTF-8 bytes;
//! column payloads keep HyLite's native columnar layout (typed data array
//! plus an optional validity bitmap), so a decoded [`Chunk`] compares
//! equal to the chunk the embedded API would have returned.
//!
//! Each frame is declared once, as one row of the [`records!`] table
//! below: its tag, its name, its sender and its typed fields. The table
//! generates [`Frame`] and its codec, under [`encode_frame`] and
//! [`decode_frame`]; every field type has one codec (see [`crate::codec`]),
//! so a decoded frame encodes back to the bytes it came from.
//!
//! Errors travel as a stable numeric [`ErrorCode`] plus a human-readable
//! message; see [`ErrorCode`] for the code space and the retryability
//! contract. The full protocol (handshake, cancellation, shutdown) is
//! documented in `docs/PROTOCOL.md`.

use std::io::{Read, Write};

use crate::codec::{put_u32, At, ByteReader, Codec};
use crate::records;
use crate::{Chunk, HyError, Result, Schema};

/// Protocol version spoken by this build. Bumped on any incompatible
/// frame-layout change; the server rejects mismatched clients at startup.
pub const PROTOCOL_VERSION: u32 = 1;

/// Magic number opening every [`Frame::Startup`]/[`Frame::Cancel`]
/// connection (`"HYLT"`), so the server can reject stray TCP clients
/// before parsing anything else.
pub const STARTUP_MAGIC: u32 = 0x4859_4C54;

/// Hard cap on a single frame's encoded size. A length prefix beyond this
/// is treated as a protocol violation rather than an allocation request.
pub const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Error codes
// ---------------------------------------------------------------------------

/// Generates [`ErrorCode`] and its conversions from one row per code:
/// `Name = code => HyError variant, retryable`.
macro_rules! error_codes {
    ($(#[$meta:meta])* pub enum ErrorCode {
        $($(#[$doc:meta])* $name:ident = $code:literal => $err:ident, $retry:literal,)*
    }) => {
        $(#[$meta])*
        pub enum ErrorCode {
            $($(#[$doc])* $name = $code,)*
        }

        impl ErrorCode {
            /// The numeric wire representation.
            pub fn as_u16(self) -> u16 {
                self as u16
            }

            /// Decode a wire code; unknown codes conservatively map to
            /// [`ErrorCode::Internal`] so old clients survive new servers.
            pub fn from_u16(code: u16) -> ErrorCode {
                match code {
                    $($code => ErrorCode::$name,)*
                    _ => ErrorCode::Internal,
                }
            }

            /// Classify an engine error into its stable wire code: the
            /// first row naming its variant, so `Unavailable` is
            /// [`ErrorCode::Overloaded`].
            #[allow(unreachable_patterns)]
            pub fn from_error(e: &HyError) -> ErrorCode {
                match e {
                    $(HyError::$err(_) => ErrorCode::$name,)*
                }
            }

            /// Reconstruct an [`HyError`] client-side from a code + message.
            pub fn to_error(self, message: impl Into<String>) -> HyError {
                match self {
                    $(ErrorCode::$name => HyError::$err(message.into()),)*
                }
            }

            /// True when retrying the same statement later is reasonable:
            /// the server deliberately shed or aborted the work without
            /// judging the SQL invalid (overload, queue backpressure,
            /// shutdown, timeout, cancellation, budget).
            pub fn is_retryable(self) -> bool {
                match self {
                    $(ErrorCode::$name => $retry,)*
                }
            }
        }
    };
}

error_codes! {
    /// Stable numeric error codes carried by [`Frame::Error`].
    ///
    /// The code space is partitioned so clients can classify failures without
    /// string matching:
    ///
    /// | Range | Meaning                                        | Retryable |
    /// |-------|------------------------------------------------|-----------|
    /// | 1xxx  | The SQL text was rejected (parse/bind/plan)    | no        |
    /// | 2xxx  | The statement failed while executing           | no        |
    /// | 3xxx  | Governed abort (cancel/timeout/budget)         | yes       |
    /// | 4xxx  | Engine bug (internal invariant violation)      | no        |
    /// | 5xxx  | Server-side admission control / transport      | see below |
    ///
    /// Within 5xxx, [`Overloaded`](ErrorCode::Overloaded),
    /// [`QueueTimeout`](ErrorCode::QueueTimeout),
    /// [`ShuttingDown`](ErrorCode::ShuttingDown) and
    /// [`DiskFull`](ErrorCode::DiskFull) are retryable (the statement was
    /// never started); [`Protocol`](ErrorCode::Protocol) is not.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    #[repr(u16)]
    pub enum ErrorCode {
        /// Tokenizer/parser rejected the SQL text.
        Parse = 1000 => Parse, false,
        /// Name resolution or type checking failed.
        Bind = 1001 => Bind, false,
        /// Logical-to-physical planning failed.
        Plan = 1002 => Plan, false,
        /// A type mismatch detected at any stage.
        Type = 1003 => Type, false,
        /// Runtime failure while executing the plan.
        Execution = 2000 => Execution, false,
        /// Storage-layer failure.
        Storage = 2001 => Storage, false,
        /// Catalog-level failure.
        Catalog = 2002 => Catalog, false,
        /// An analytics operator rejected its configuration or input.
        Analytics = 2003 => Analytics, false,
        /// Transaction handling failure.
        Transaction = 2004 => Transaction, false,
        /// The statement was cancelled (e.g. an out-of-band Cancel frame).
        Cancelled = 3000 => Cancelled, true,
        /// The statement ran past its `statement_timeout_ms`.
        Timeout = 3001 => Timeout, true,
        /// The statement exceeded its `memory_budget_mb`.
        BudgetExceeded = 3002 => BudgetExceeded, true,
        /// Internal invariant violation — a bug, not user error.
        Internal = 4000 => Internal, false,
        /// The server is at its connection cap or statement queue capacity.
        Overloaded = 5000 => Unavailable, true,
        /// The statement waited in the admission queue past the configured
        /// backpressure deadline without getting an execution slot.
        QueueTimeout = 5001 => Unavailable, true,
        /// The server is draining for shutdown and accepts no new work.
        ShuttingDown = 5002 => Unavailable, true,
        /// Wire-protocol violation (bad magic, unknown tag, short frame,
        /// version mismatch, transport failure).
        Protocol = 5003 => Protocol, false,
        /// The statement tried to write on a read-only replica. Retryable in
        /// the sense that the *system* can serve it — the message names the
        /// primary the client should write to (or retry against after a
        /// promotion).
        ReadOnlyReplica = 5004 => ReadOnly, true,
        /// The node's disk is full: it serves reads in degraded mode and
        /// rejects writes until space frees. Retryable — write service
        /// resumes automatically once the background space probe succeeds.
        DiskFull = 5005 => DiskFull, true,
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

records! {
    /// One protocol frame. See the module docs for the on-wire layout and
    /// `docs/PROTOCOL.md` for the conversation state machine.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Frame {
        /// Client → server, first frame of a query connection.
        1 Startup from client with Magic {
            /// Must equal [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Server → client, successful handshake. `session_id`/`secret`
        /// authorize out-of-band [`Frame::Cancel`] requests.
        2 StartupOk from server {
            /// Server's protocol version.
            version: u32,
            /// Server-assigned connection id.
            session_id: u64,
            /// Random secret required to cancel this session.
            secret: u64,
        },
        /// Client → server: execute a SQL text (may contain several
        /// `;`-separated statements; the last result is returned).
        3 Query from client {
            /// The SQL text.
            sql: String,
        },
        /// Server → client: the result schema, sent before any data.
        4 ResultSchema from server {
            /// Result column names/types.
            schema: Schema,
        },
        /// Server → client: one columnar batch of result rows.
        5 DataChunk from server {
            /// The batch, in HyLite's native columnar layout.
            chunk: Chunk,
        },
        /// Server → client: the statement finished successfully.
        6 CommandComplete from server {
            /// Rows inserted/updated/deleted by DML.
            rows_affected: u64,
            /// Total result rows streamed in the preceding chunks.
            total_rows: u64,
            /// The node's highest durable LSN when the statement completed
            /// (`0` on a non-durable server). On a primary this is the commit
            /// watermark; on a replica it is the last durably *applied* LSN.
            /// Routers compare the two to decide whether a replica has caught
            /// up with a session's writes ("read your own writes").
            lsn: u64,
        },
        /// Server → client: the statement (or handshake) failed.
        7 Error from server {
            /// Stable numeric code, see [`ErrorCode`].
            code: u16,
            /// Human-readable message.
            message: String,
        },
        /// Client → server, first frame of a *cancel* connection: abort the
        /// statement running on another session.
        8 Cancel from client with Magic {
            /// Target session id from its [`Frame::StartupOk`].
            session_id: u64,
            /// Matching secret from the same handshake.
            secret: u64,
        },
        /// Server → client: answer to [`Frame::Cancel`].
        9 CancelAck from server {
            /// Whether the session existed and the cancel was delivered.
            delivered: bool,
        },
        /// Client → server: request graceful server shutdown (drain in-flight
        /// statements under the server's deadline, then stop).
        10 Shutdown from client,
        /// Client → server: close this connection cleanly.
        11 Terminate from client,
        /// Replica → primary, first frame of a *replication* connection:
        /// request the WAL stream starting after the replica's last durably
        /// applied commit.
        12 Replicate from replica with Magic {
            /// Must equal [`PROTOCOL_VERSION`].
            version: u32,
            /// The primary-incarnation epoch the replica last bootstrapped
            /// from, or `0` for a fresh replica with no local state. An epoch
            /// the primary does not recognize as its own forces a
            /// re-bootstrap instead of a silent fork.
            epoch: u64,
            /// LSN of the last commit the replica has durably applied
            /// (`0` = none); streaming resumes at `last_lsn + 1`.
            last_lsn: u64,
        },
        /// Primary → replica: handshake accepted; WAL frames follow.
        13 ReplicateOk from primary {
            /// The primary's current incarnation epoch.
            epoch: u64,
            /// The next LSN the primary will stream (the replica is caught
            /// up once it has applied everything below this).
            next_lsn: u64,
        },
        /// Primary → replica: the requested LSN is no longer in the
        /// primary's WAL (checkpoint truncation) or the epochs diverge; the
        /// replica must discard local state and install this checkpoint
        /// image before streaming resumes.
        14 SnapshotOffer from primary {
            /// The primary's current incarnation epoch; the replica adopts it.
            epoch: u64,
            /// LSN the snapshot is consistent as of; streaming resumes here.
            base_lsn: u64,
            /// A complete checkpoint image in the on-disk checkpoint format.
            data: Vec<u8>,
        },
        /// Primary → replica: one redo-WAL commit frame, shipped verbatim.
        15 WalFrame from primary {
            /// The commit's log sequence number (must be exactly the
            /// replica's next expected LSN — any gap is divergence).
            lsn: u64,
            /// CRC32 of `payload` exactly as stored in the primary's WAL;
            /// the replica re-verifies before applying.
            crc: u32,
            /// The WAL frame payload (`[lsn][nops][ops...]`).
            payload: Vec<u8>,
        },
        /// Replica → primary: everything up to and including `lsn` has been
        /// durably applied on the replica. Advances the primary's
        /// flow-control window.
        16 ReplicaAck from replica {
            /// Highest durably applied LSN.
            lsn: u64,
        },
        /// Client → server, first frame of an *admin* connection: promote
        /// this replica to a writable primary in place (mint a fresh epoch,
        /// stop following the old primary, start accepting writes). A no-op
        /// on a server that is already a primary.
        17 Promote from client with Magic,
        /// Server → client: answer to [`Frame::Promote`].
        18 PromoteOk from server {
            /// The (possibly fresh) primary incarnation epoch after the
            /// promotion took effect.
            epoch: u64,
            /// The node's highest durable LSN at promotion time.
            lsn: u64,
        },
        /// Client → server, first frame of an *admin* connection: tell a
        /// replica to follow a different primary (after a failover). The
        /// replica redirects its apply loop; epoch fencing at the new
        /// primary decides whether it can resume the stream or must
        /// re-bootstrap — a stale fork is never served. Acknowledged with a
        /// [`Frame::CommandComplete`], or [`Frame::Error`] if this server is
        /// not a replica.
        19 Repoint from client with Magic {
            /// `host:port` of the new primary to follow.
            primary_addr: String,
        },
        /// Client → server, first frame of an *admin* connection: take an
        /// online backup into a directory on the server's filesystem.
        /// Answered with [`Frame::BackupOk`] or [`Frame::Error`].
        20 Backup from client with Magic {
            /// Destination directory (server-side path).
            dir: String,
            /// Optional incremental base backup directory (server-side path).
            base: Option<String>,
            /// Re-read every copied file before completion.
            verify: bool,
        },
        /// Server → client: answer to [`Frame::Backup`].
        21 BackupOk from server {
            /// Highest LSN the backup contains.
            lsn: u64,
            /// Segment files physically copied.
            segments: u64,
            /// Bytes copied.
            bytes: u64,
        },
    } else other => HyError::Protocol(format!("unknown frame tag {other}"));
}

impl Frame {
    /// Build an error frame from an engine error.
    pub fn error(e: &HyError) -> Frame {
        Frame::Error {
            code: ErrorCode::from_error(e).as_u16(),
            message: e.message().to_owned(),
        }
    }

    /// Build an error frame with an explicit code (admission control uses
    /// this to distinguish `Overloaded`/`QueueTimeout`/`ShuttingDown`,
    /// which all surface client-side as [`HyError::Unavailable`]).
    pub fn error_with_code(code: ErrorCode, message: impl Into<String>) -> Frame {
        Frame::Error {
            code: code.as_u16(),
            message: message.into(),
        }
    }
}

/// The [`STARTUP_MAGIC`] opening the first frame of a connection, so a
/// stray peer is refused before anything else is parsed.
struct Magic;

impl Codec for Magic {
    fn put(_: &Magic, buf: &mut Vec<u8>) {
        put_u32(buf, STARTUP_MAGIC);
    }
    fn get(r: &mut ByteReader<'_>, At(frame, sender, _): At) -> Result<Magic> {
        match r.u32()? {
            STARTUP_MAGIC => Ok(Magic),
            magic => Err(HyError::Protocol(format!(
                "bad {} magic {magic:#010x} (not a HyLite {sender}?)",
                frame.to_lowercase()
            ))),
        }
    }
}

/// Encode a frame into its on-wire byte representation (length prefix
/// included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u32(&mut buf, 0); // length placeholder
    Frame::put(frame, &mut buf);
    let len = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    buf
}

/// Decode one frame from its body bytes (length prefix already consumed).
pub fn decode_frame(tag: u8, body: &[u8]) -> Result<Frame> {
    let mut r = ByteReader::new(body);
    let frame = Frame::get_tagged(tag, &mut r)?;
    if !r.is_empty() {
        return Err(HyError::Protocol(format!(
            "frame has {} trailing bytes after tag {tag}",
            r.remaining()
        )));
    }
    Ok(frame)
}

/// Encode and write one frame; returns the number of bytes written.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<usize> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)
        .map_err(|e| HyError::Protocol(format!("write failed: {e}")))?;
    Ok(bytes.len())
}

/// Read one frame from a stream. A clean EOF before any byte of the
/// length prefix maps to [`HyError::Protocol`] with the message
/// `"connection closed"` — callers treat that as a normal disconnect.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => {
                return Err(HyError::Protocol("connection closed".into()));
            }
            Ok(0) => {
                return Err(HyError::Protocol(
                    "connection closed mid-frame (length prefix)".into(),
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HyError::Protocol(format!("read failed: {e}"))),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(HyError::Protocol("zero-length frame".into()));
    }
    if len > MAX_FRAME_BYTES {
        return Err(HyError::Protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| HyError::Protocol(format!("connection closed mid-frame: {e}")))?;
    let tag = body[0];
    decode_frame(tag, &body[1..])
}

/// Split a received frame into a reply or a server error: an
/// [`Frame::Error`] becomes its [`ErrorCode`] and the [`HyError`] it
/// stands for, any other frame passes through. The one decoder of an
/// `Error` frame, for the client and the replica's apply loop alike.
pub fn reply_or_error(frame: Frame) -> std::result::Result<Frame, (ErrorCode, HyError)> {
    match frame {
        Frame::Error { code, message } => {
            let code = ErrorCode::from_u16(code);
            Err((code, code.to_error(message)))
        }
        other => Ok(other),
    }
}

/// True when a [`read_frame`] error is the normal "peer went away" case
/// rather than a malformed frame.
pub fn is_disconnect(e: &HyError) -> bool {
    matches!(e, HyError::Protocol(m) if m == "connection closed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ColumnVector, DataType, Field};

    fn roundtrip(frame: Frame) {
        let bytes = encode_frame(&frame);
        let mut cursor = &bytes[..];
        let decoded = read_frame(&mut cursor).unwrap();
        assert_eq!(decoded, frame);
        assert!(cursor.is_empty(), "no trailing bytes");
    }

    #[test]
    fn control_frames_roundtrip() {
        roundtrip(Frame::Startup {
            version: PROTOCOL_VERSION,
        });
        roundtrip(Frame::StartupOk {
            version: 1,
            session_id: 42,
            secret: u64::MAX,
        });
        roundtrip(Frame::Query {
            sql: "SELECT 1".into(),
        });
        roundtrip(Frame::CommandComplete {
            rows_affected: 7,
            total_rows: 123,
            lsn: 99,
        });
        roundtrip(Frame::Error {
            code: ErrorCode::Overloaded.as_u16(),
            message: "too many connections".into(),
        });
        roundtrip(Frame::Cancel {
            session_id: 9,
            secret: 10,
        });
        roundtrip(Frame::CancelAck { delivered: true });
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Terminate);
    }

    #[test]
    fn replication_frames_roundtrip() {
        roundtrip(Frame::Replicate {
            version: PROTOCOL_VERSION,
            epoch: 0xDEAD_BEEF_CAFE_F00D,
            last_lsn: 41,
        });
        roundtrip(Frame::ReplicateOk {
            epoch: 7,
            next_lsn: 42,
        });
        roundtrip(Frame::SnapshotOffer {
            epoch: u64::MAX,
            base_lsn: 100,
            data: vec![1, 2, 3, 4, 5],
        });
        roundtrip(Frame::SnapshotOffer {
            epoch: 1,
            base_lsn: 1,
            data: Vec::new(),
        });
        roundtrip(Frame::WalFrame {
            lsn: 9,
            crc: 0x1234_5678,
            payload: vec![0xAB; 37],
        });
        roundtrip(Frame::ReplicaAck { lsn: u64::MAX });
    }

    #[test]
    fn admin_frames_roundtrip() {
        roundtrip(Frame::Promote);
        roundtrip(Frame::PromoteOk {
            epoch: 0xFEED_FACE,
            lsn: 41,
        });
        roundtrip(Frame::Repoint {
            primary_addr: "10.0.0.7:5433".into(),
        });
        roundtrip(Frame::Backup {
            dir: "/backups/nightly".into(),
            base: None,
            verify: false,
        });
        roundtrip(Frame::Backup {
            dir: "/backups/inc-17".into(),
            base: Some("/backups/nightly".into()),
            verify: true,
        });
        roundtrip(Frame::BackupOk {
            lsn: u64::MAX,
            segments: 12,
            bytes: 0xDEAD_BEEF,
        });
    }

    #[test]
    fn schema_roundtrip() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int64).with_qualifier("t"),
            Field::new("name", DataType::Varchar),
            Field::new("ok", DataType::Bool).not_null(),
        ]);
        roundtrip(Frame::ResultSchema { schema });
    }

    #[test]
    fn chunk_roundtrip_all_types_with_nulls() {
        let mut s = ColumnVector::empty(DataType::Varchar);
        for v in [
            crate::Value::from("a"),
            crate::Value::Null,
            crate::Value::from("ccc"),
        ] {
            s.push_value(&v).unwrap();
        }
        let mut f = ColumnVector::empty(DataType::Float64);
        for v in [
            crate::Value::Float(1.5),
            crate::Value::Float(-0.0),
            crate::Value::Null,
        ] {
            f.push_value(&v).unwrap();
        }
        let chunk = Chunk::new(vec![
            ColumnVector::from_i64(vec![1, -2, i64::MAX]),
            f,
            ColumnVector::from_bool(vec![true, false, true]),
            s,
        ]);
        roundtrip(Frame::DataChunk { chunk });
    }

    #[test]
    fn zero_column_chunk_keeps_len() {
        roundtrip(Frame::DataChunk {
            chunk: Chunk::zero_column(17),
        });
    }

    #[test]
    fn wide_bitmap_roundtrip() {
        // > 64 rows exercises multi-word bitmaps on both sides.
        let mut col = ColumnVector::empty(DataType::Int64);
        for i in 0..200 {
            let v = if i % 3 == 0 {
                crate::Value::Null
            } else {
                crate::Value::Int(i)
            };
            col.push_value(&v).unwrap();
        }
        roundtrip(Frame::DataChunk {
            chunk: Chunk::new(vec![col]),
        });
    }

    #[test]
    fn error_codes_are_stable_and_total() {
        // Every HyError variant maps to a code and back to the same
        // variant family; the numeric values are part of the protocol.
        let cases = [
            (HyError::Parse("m".into()), 1000),
            (HyError::Bind("m".into()), 1001),
            (HyError::Plan("m".into()), 1002),
            (HyError::Type("m".into()), 1003),
            (HyError::Execution("m".into()), 2000),
            (HyError::Storage("m".into()), 2001),
            (HyError::Catalog("m".into()), 2002),
            (HyError::Analytics("m".into()), 2003),
            (HyError::Transaction("m".into()), 2004),
            (HyError::Cancelled("m".into()), 3000),
            (HyError::Timeout("m".into()), 3001),
            (HyError::BudgetExceeded("m".into()), 3002),
            (HyError::Unavailable("m".into()), 5000),
            (HyError::ReadOnly("m".into()), 5004),
            (HyError::DiskFull("m".into()), 5005),
            (HyError::Protocol("m".into()), 5003),
            (HyError::Internal("m".into()), 4000),
        ];
        for (err, code) in cases {
            let c = ErrorCode::from_error(&err);
            assert_eq!(c.as_u16(), code, "{err:?}");
            assert_eq!(ErrorCode::from_u16(code), c);
            let back = c.to_error(err.message().to_owned());
            assert_eq!(back.stage(), err.stage(), "{err:?} roundtrips its stage");
        }
    }

    #[test]
    fn retryability_contract() {
        for code in [
            ErrorCode::Cancelled,
            ErrorCode::Timeout,
            ErrorCode::BudgetExceeded,
            ErrorCode::Overloaded,
            ErrorCode::QueueTimeout,
            ErrorCode::ShuttingDown,
            ErrorCode::ReadOnlyReplica,
            ErrorCode::DiskFull,
        ] {
            assert!(code.is_retryable(), "{code:?}");
        }
        for code in [
            ErrorCode::Parse,
            ErrorCode::Bind,
            ErrorCode::Execution,
            ErrorCode::Internal,
            ErrorCode::Protocol,
        ] {
            assert!(!code.is_retryable(), "{code:?}");
        }
    }

    #[test]
    fn admission_codes_surface_as_unavailable() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::QueueTimeout,
            ErrorCode::ShuttingDown,
        ] {
            assert!(matches!(code.to_error("x"), HyError::Unavailable(_)));
        }
    }

    #[test]
    fn eof_maps_to_disconnect() {
        let empty: &[u8] = &[];
        let err = read_frame(&mut { empty }).unwrap_err();
        assert!(is_disconnect(&err), "{err}");
        // Mid-frame EOF is NOT a clean disconnect.
        let partial: &[u8] = &[5, 0, 0, 0, 3];
        let err = read_frame(&mut { partial }).unwrap_err();
        assert!(!is_disconnect(&err), "{err}");
    }

    #[test]
    fn oversized_frame_rejected_without_allocating() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME_BYTES + 1);
        bytes.push(3);
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert!(matches!(err, HyError::Protocol(m) if m.contains("cap")));
    }

    /// The rows of the markdown table under `heading` in docs/PROTOCOL.md.
    fn doc_table(heading: &str) -> Vec<Vec<String>> {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let section = doc.split(heading).nth(1).expect(heading);
        let lines = section.lines().skip_while(|l| !l.starts_with('|'));
        lines
            .skip(2)
            .take_while(|l| l.starts_with('|'))
            .map(|l| {
                l.trim_matches('|')
                    .split('|')
                    .map(|c| c.trim().to_owned())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn protocol_md_lists_every_frame_and_error_code_as_declared() {
        let frames: Vec<Vec<String>> = Frame::TABLE
            .iter()
            .map(|(tag, name, sender, payload)| {
                let receiver = match *sender {
                    "client" => "server",
                    "server" => "client",
                    "replica" => "primary",
                    "primary" => "replica",
                    other => panic!("unknown sender {other}"),
                };
                let payload: Vec<String> = payload.iter().map(|p| format!("`{p}`")).collect();
                let payload = if payload.is_empty() {
                    "empty".to_owned()
                } else {
                    payload.join(", ")
                };
                vec![
                    tag.to_string(),
                    name.to_string(),
                    format!("{sender} → {receiver}"),
                    payload,
                ]
            })
            .collect();
        assert_eq!(doc_table("## Frame catalogue"), frames);
        // Every code the table declares, read back through the API it
        // generates.
        let codes: Vec<Vec<String>> = (0..=u16::MAX)
            .filter(|&c| ErrorCode::from_u16(c).as_u16() == c)
            .map(|c| {
                let code = ErrorCode::from_u16(c);
                let err = format!("{:?}", code.to_error(""));
                vec![
                    c.to_string(),
                    format!("{code:?}"),
                    format!("`{}`", err.trim_end_matches("(\"\")")),
                    if code.is_retryable() { "yes" } else { "no" }.to_owned(),
                ]
            })
            .collect();
        assert_eq!(doc_table("## Error codes"), codes);
    }
}
