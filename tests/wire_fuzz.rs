//! Adversarial wire-protocol decoding: every mutation of a valid frame —
//! truncation, oversized length prefixes, bit flips, random garbage —
//! must come back as a typed `HyError` (almost always `Protocol`), never
//! a panic, never an allocation explosion.
//!
//! This is a deterministic fuzz harness, not a statistical one: the
//! mutation schedule derives from a fixed seed, so a failure reproduces
//! exactly.
//!
//! Two records pin the codec itself, not just its robustness: the bytes
//! of every corpus frame and the exact error of every malformed input in
//! `tests/golden/wire_frames.txt` (captured at 0c67700 with the
//! `#[ignore]`d printer below), and canonical decoding — a bit flip the
//! decoder accepts encodes back to the flipped bytes.

use hylite_common::wire::{self, Frame, MAX_FRAME_BYTES, PROTOCOL_VERSION, STARTUP_MAGIC};
use hylite_common::{Chunk, ColumnVector, DataType, Field, Schema, Value};

/// SplitMix64 — the same tiny deterministic generator the engine uses.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One representative frame per wire message shape, covering every column
/// type the chunk codec speaks.
fn corpus() -> Vec<Frame> {
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int64),
        Field::new("b", DataType::Float64),
        Field::new("c", DataType::Varchar),
        Field::new("d", DataType::Bool),
    ]);
    let chunk = Chunk::new(vec![
        ColumnVector::from_i64(vec![1, -2, i64::MAX]),
        ColumnVector::from_f64(vec![0.5, f64::NAN, -1e300]),
        ColumnVector::from_values(
            DataType::Varchar,
            &[Value::from("x"), Value::Null, Value::from("déjà vu")],
        )
        .unwrap(),
        ColumnVector::from_values(
            DataType::Bool,
            &[Value::Bool(true), Value::Bool(false), Value::Null],
        )
        .unwrap(),
    ]);
    vec![
        Frame::Startup {
            version: PROTOCOL_VERSION,
        },
        Frame::StartupOk {
            version: PROTOCOL_VERSION,
            session_id: 42,
            secret: 0xDEAD_BEEF,
        },
        Frame::Query {
            sql: "SELECT * FROM t WHERE x > 'quoted''string'".into(),
        },
        Frame::ResultSchema { schema },
        Frame::DataChunk { chunk },
        Frame::CommandComplete {
            rows_affected: 3,
            total_rows: 3,
            lsn: 17,
        },
        Frame::Error {
            code: 7,
            message: "boom".into(),
        },
        Frame::Cancel {
            session_id: 9,
            secret: 1,
        },
        Frame::CancelAck { delivered: true },
        Frame::Shutdown,
        Frame::Terminate,
        Frame::Replicate {
            version: PROTOCOL_VERSION,
            epoch: 0xFEED_F00D_DEAD_BEEF,
            last_lsn: 41,
        },
        Frame::ReplicateOk {
            epoch: 0xFEED_F00D_DEAD_BEEF,
            next_lsn: 42,
        },
        Frame::SnapshotOffer {
            epoch: 1,
            base_lsn: 7,
            data: vec![0x48, 0x59, 0x43, 0x4B, 0x00, 0xFF, 0x7F],
        },
        Frame::WalFrame {
            lsn: 9,
            crc: 0xC0FF_EE00,
            payload: vec![9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0],
        },
        Frame::ReplicaAck { lsn: u64::MAX },
        Frame::Promote,
        Frame::PromoteOk {
            epoch: 0xFEED_FACE,
            lsn: 41,
        },
        Frame::Repoint {
            primary_addr: "10.0.0.7:5433".into(),
        },
        Frame::Backup {
            dir: "/backups/nightly".into(),
            base: Some("/backups/weekly".into()),
            verify: true,
        },
        Frame::Backup {
            dir: "b".into(),
            base: None,
            verify: false,
        },
        Frame::BackupOk {
            lsn: u64::MAX,
            segments: 12,
            bytes: 0xDEAD_BEEF,
        },
    ]
}

/// Feed arbitrary bytes to the frame reader; the only acceptable
/// outcomes are a decoded frame or a typed error.
fn must_not_panic(bytes: &[u8]) {
    let mut cursor = bytes;
    let _ = wire::read_frame(&mut cursor);
}

#[test]
fn every_truncation_of_every_frame_errors_cleanly() {
    for frame in corpus() {
        let bytes = wire::encode_frame(&frame);
        // Every proper prefix, including the empty one.
        for cut in 0..bytes.len() {
            must_not_panic(&bytes[..cut]);
        }
        // Truncate the *body* but keep the original length prefix: the
        // reader must report the short read, not block or panic.
        if bytes.len() > 6 {
            let mut long_prefix = bytes.clone();
            long_prefix.truncate(bytes.len() - 1);
            must_not_panic(&long_prefix);
        }
    }
}

#[test]
fn every_single_bit_flip_errors_cleanly_or_decodes() {
    for frame in corpus() {
        let bytes = wire::encode_frame(&frame);
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte_idx] ^= 1 << bit;
                // A flip may still decode (e.g. inside a string); it must
                // never panic or over-allocate.
                must_not_panic(&mutated);
            }
        }
    }
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // Claim a body of MAX_FRAME_BYTES + 1 — the reader must refuse based
    // on the prefix alone instead of trying to allocate it.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    let mut cursor = &bytes[..];
    let err = wire::read_frame(&mut cursor).unwrap_err();
    assert_eq!(err.stage(), "protocol", "{err}");

    // u32::MAX likewise.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0u8; 16]);
    let mut cursor = &bytes[..];
    assert!(wire::read_frame(&mut cursor).is_err());
}

#[test]
fn random_garbage_never_panics() {
    let mut seed = 0x5EED_CAFE_u64;
    for round in 0..2000 {
        seed = splitmix64(seed ^ round);
        let len = (seed % 512) as usize;
        let mut bytes = Vec::with_capacity(len);
        let mut s = seed;
        for _ in 0..len {
            s = splitmix64(s);
            bytes.push(s as u8);
        }
        must_not_panic(&bytes);
    }
}

#[test]
fn spliced_frames_resynchronize_or_error() {
    // Concatenate two valid frames, then mutate the boundary: the reader
    // consumes the first; whatever happens to the second must be clean.
    let a = wire::encode_frame(&Frame::Query {
        sql: "SELECT 1".into(),
    });
    let b = wire::encode_frame(&Frame::Terminate);
    let mut spliced = a.clone();
    spliced.extend_from_slice(&b);
    let mut cursor = &spliced[..];
    assert!(wire::read_frame(&mut cursor).is_ok());
    assert!(wire::read_frame(&mut cursor).is_ok());

    // Corrupt the second frame's tag.
    let mut corrupted = a.clone();
    let mut b2 = b.clone();
    let tag_at = 4; // after the u32 length prefix
    b2[tag_at] = 0xEE;
    corrupted.extend_from_slice(&b2);
    let mut cursor = &corrupted[..];
    assert!(wire::read_frame(&mut cursor).is_ok());
    let err = wire::read_frame(&mut cursor).unwrap_err();
    assert_eq!(err.stage(), "protocol", "{err}");
}

#[test]
fn mutated_chunks_preserve_row_count_claims_or_error() {
    // A DataChunk whose declared row count disagrees with its columns
    // must error, not mis-index.
    let chunk = Chunk::new(vec![ColumnVector::from_i64(vec![1, 2, 3])]);
    let frame = Frame::DataChunk { chunk };
    let bytes = wire::encode_frame(&frame);
    // Walk every byte with an additive mutation (different from the
    // bit-flip test's XOR) — decode must stay panic-free.
    for idx in 4..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[idx] = mutated[idx].wrapping_add(0x55);
        must_not_panic(&mutated);
    }
}

#[test]
fn replication_frames_with_lying_inner_lengths_error_cleanly() {
    // SnapshotOffer and WalFrame carry their own inner byte-length
    // fields; a length claiming more than the body holds must error,
    // never over-read or over-allocate.
    let offer = wire::encode_frame(&Frame::SnapshotOffer {
        epoch: 1,
        base_lsn: 7,
        data: vec![1, 2, 3, 4],
    });
    // Layout: [frame len u32][tag u8][epoch u64][base_lsn u64][data len u32]...
    let mut lying = offer.clone();
    lying[21..25].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut cursor = &lying[..];
    assert!(wire::read_frame(&mut cursor).is_err());

    let wal = wire::encode_frame(&Frame::WalFrame {
        lsn: 9,
        crc: 0xC0FF_EE00,
        payload: vec![1, 2, 3, 4],
    });
    // Layout: [frame len u32][tag u8][lsn u64][crc u32][payload len u32]...
    let mut lying = wal.clone();
    lying[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut cursor = &lying[..];
    assert!(wire::read_frame(&mut cursor).is_err());

    // A Replicate frame with a corrupted magic must be rejected (it
    // guards the replication handshake against misrouted frames).
    let mut replicate = wire::encode_frame(&Frame::Replicate {
        version: PROTOCOL_VERSION,
        epoch: 1,
        last_lsn: 0,
    });
    replicate[5] ^= 0xFF; // first magic byte, after [len u32][tag u8]
    let mut cursor = &replicate[..];
    let err = wire::read_frame(&mut cursor).unwrap_err();
    assert_eq!(err.stage(), "protocol", "{err}");
}

#[test]
fn command_complete_requires_its_whole_lsn() {
    // CommandComplete is [rows_affected u64][total_rows u64][lsn u64]; a
    // body that stops before, or part-way through, the LSN is a protocol
    // error, not an "unknown LSN".
    let body = wire::encode_frame(&Frame::CommandComplete {
        rows_affected: 7,
        total_rows: 123,
        lsn: 17,
    })[5..]
        .to_vec();
    assert!(wire::decode_frame(6, &body).is_ok());
    for cut in [16, 19] {
        let err = wire::decode_frame(6, &body[..cut]).unwrap_err();
        assert_eq!(err.stage(), "protocol", "{err}");
    }
}

#[test]
fn valid_corpus_roundtrips_unchanged() {
    // Sanity: the corpus itself is decodable — otherwise the mutation
    // tests above would be vacuous.
    for frame in corpus() {
        let bytes = wire::encode_frame(&frame);
        let mut cursor = &bytes[..];
        let decoded = wire::read_frame(&mut cursor).unwrap();
        // NaN breaks PartialEq for the float column; compare the debug
        // rendering instead, which is stable for the corpus.
        assert_eq!(format!("{decoded:?}"), format!("{frame:?}"));
    }
}

#[test]
fn admin_frames_reject_magic_corruption_before_any_state_change() {
    // Promote (tag 17) and Repoint (tag 19) are the PR-8 admin verbs —
    // the frames that flip a replica writable or redirect a fleet. Both
    // carry the startup magic as a guard against misrouted frames; every
    // corruption of that magic must come back as a typed protocol error
    // from the *decoder*, so no connection or replica state machine ever
    // sees the frame.
    // Layout: [len u32][tag u8][magic u32]...
    for frame in [
        Frame::Promote,
        Frame::Repoint {
            primary_addr: "10.0.0.7:5433".into(),
        },
        Frame::Backup {
            dir: "/backups/nightly".into(),
            base: None,
            verify: false,
        },
    ] {
        let bytes = wire::encode_frame(&frame);
        for magic_byte in 5..9 {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[magic_byte] ^= 1 << bit;
                let mut cursor = &mutated[..];
                let err = wire::read_frame(&mut cursor).unwrap_err();
                assert_eq!(err.stage(), "protocol", "{err}");
                assert!(err.to_string().contains("magic"), "{err}");
            }
        }
    }

    // PromoteOk (tag 18) has no magic — it is only ever parsed as the
    // answer to a Promote the client itself sent. Its mutations must
    // still decode or error cleanly; a truncated epoch must error.
    let ok = wire::encode_frame(&Frame::PromoteOk {
        epoch: 0xFEED_FACE,
        lsn: 41,
    });
    for cut in 0..ok.len() {
        must_not_panic(&ok[..cut]);
    }

    // Trailing garbage after a well-formed admin frame is a framing
    // violation, not ignorable padding.
    for frame in [
        Frame::Promote,
        Frame::PromoteOk { epoch: 1, lsn: 2 },
        Frame::Repoint {
            primary_addr: "p:1".into(),
        },
        Frame::Backup {
            dir: "b".into(),
            base: Some("a".into()),
            verify: true,
        },
        Frame::BackupOk {
            lsn: 3,
            segments: 2,
            bytes: 1,
        },
    ] {
        let mut bytes = wire::encode_frame(&frame);
        bytes.push(0x00);
        let len = (bytes.len() - 4) as u32;
        bytes[0..4].copy_from_slice(&len.to_le_bytes());
        let mut cursor = &bytes[..];
        let err = wire::read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.stage(), "protocol", "{err}");
        assert!(err.to_string().contains("trailing"), "{err}");
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Re-frame a body under a tag, fixing the length prefix.
fn framed(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut bytes = ((body.len() + 1) as u32).to_le_bytes().to_vec();
    bytes.push(tag);
    bytes.extend_from_slice(body);
    bytes
}

/// Malformed inputs, each a whole frame as it arrives on a socket.
fn malformed() -> Vec<(String, Vec<u8>)> {
    let mut cases = Vec::new();
    // Layout: [len u32][tag u8][magic u32]...; flip the magic's first byte
    // in one frame of each kind that opens with it.
    let mut magic_frames: Vec<Frame> = corpus()
        .into_iter()
        .filter(|f| wire::encode_frame(f).get(5..9) == Some(&STARTUP_MAGIC.to_le_bytes()[..]))
        .collect();
    magic_frames.dedup_by_key(|f| variant(f));
    for frame in magic_frames {
        let mut bad = wire::encode_frame(&frame);
        bad[5] ^= 0xFF;
        cases.push((format!("bad {} magic", variant(&frame)), bad));
    }
    let backup = wire::encode_frame(&Frame::Backup {
        dir: "b".into(),
        base: None,
        verify: false,
    });
    let n = backup.len();
    let mut bad = backup.clone();
    bad[n - 2] = 7;
    cases.push(("bad Backup base flag".into(), bad));
    let mut bad = backup.clone();
    bad[n - 1] = 9;
    cases.push(("bad Backup verify flag".into(), bad));
    cases.push(("unknown tag".into(), framed(99, &[])));
    let query = wire::encode_frame(&Frame::Query {
        sql: "SELECT 1".into(),
    });
    let mut body = query[5..].to_vec();
    body.push(0xFF);
    cases.push(("trailing bytes".into(), framed(3, &body)));
    cases.push(("truncated string".into(), framed(3, &[10, 0, 0, 0, b'S'])));
    cases.push(("invalid UTF-8".into(), framed(3, &[2, 0, 0, 0, 0xC3, 0x28])));
    let mut bytes = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[3; 16]);
    cases.push(("oversized length prefix".into(), bytes));
    let mut bytes = u32::MAX.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[3; 16]);
    cases.push(("u32::MAX length prefix".into(), bytes));
    cases.push(("zero-length frame".into(), vec![0, 0, 0, 0]));
    cases.push(("no bytes".into(), vec![]));
    cases.push(("short length prefix".into(), vec![5, 0]));
    cases.push((
        "body shorter than its prefix".into(),
        vec![9, 0, 0, 0, 3, 1],
    ));
    // ResultSchema: [u16 fields][u8 qualifier flag][name][u8 type tag][u8 nullable].
    cases.push((
        "unknown schema type tag".into(),
        framed(4, &[1, 0, 0, 1, 0, 0, 0, b'a', 9, 1]),
    ));
    // DataChunk: [u32 rows][u16 cols] then [u8 tag][u32 rows][u8 validity] per column.
    cases.push((
        "unknown column type tag".into(),
        framed(5, &[0, 0, 0, 0, 1, 0, 9, 0, 0, 0, 0, 0]),
    ));
    cases.push((
        "column shorter than its chunk".into(),
        framed(
            5,
            &[2, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0],
        ),
    ));
    cases
}

fn variant(frame: &Frame) -> String {
    let debug = format!("{frame:?}");
    debug.split([' ', '{']).next().unwrap().to_owned()
}

fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for frame in corpus() {
        let bytes = wire::encode_frame(&frame);
        lines.push(format!("encode {}: {}", variant(&frame), hex(&bytes)));
    }
    for (label, bytes) in malformed() {
        let got = wire::read_frame(&mut &bytes[..]);
        lines.push(format!(
            "reject {label} ({}): {:?}",
            hex(&bytes),
            got.map(|f| variant(&f))
        ));
    }
    lines
}

/// `cargo test --test wire_fuzz -- --ignored --nocapture print_wire_frames`
/// prints `tests/golden/wire_frames.txt`.
#[test]
#[ignore = "prints the golden; run it by name"]
fn print_wire_frames_for_the_golden() {
    for line in golden_lines() {
        println!("{line}");
    }
}

#[test]
fn every_frame_encodes_and_every_malformed_frame_fails_as_pinned() {
    let want: Vec<&str> = include_str!("golden/wire_frames.txt").lines().collect();
    let got = golden_lines();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "a golden line per case");
}

#[test]
fn every_bit_flip_that_decodes_encodes_back_to_the_same_bytes() {
    // Each field type has one encoding: a flip the decoder accepts names
    // another value, which must encode to exactly the flipped bytes. The
    // one exception is a field name, which `Field::new` lowercases.
    for frame in corpus() {
        let bytes = wire::encode_frame(&frame);
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte_idx] ^= 1 << bit;
                let Ok(decoded) = wire::read_frame(&mut &mutated[..]) else {
                    continue;
                };
                let mut canonical = mutated.clone();
                if matches!(decoded, Frame::ResultSchema { .. }) {
                    canonical[byte_idx] = canonical[byte_idx].to_ascii_lowercase();
                }
                assert_eq!(
                    wire::encode_frame(&decoded),
                    canonical,
                    "{} with bit {bit} of byte {byte_idx} flipped decodes to {decoded:?}",
                    variant(&frame)
                );
            }
        }
    }
}
