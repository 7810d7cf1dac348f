//! Every record HyLite writes to disk, pinned byte for byte and decoded
//! adversarially: a WAL commit frame, a checkpoint manifest, a bootstrap
//! bundle, backup metadata, the replication state and one small segment
//! file per block encoding.
//!
//! * `tests/golden/storage_records.txt` holds the hex of each record (the
//!   `#[ignore]`d printer below writes it). Every line but `replstate v2`
//!   was captured at db98303, before the records were declared on the
//!   shared field codecs, which reproduce them byte for byte.
//! * Canonical decoding: a record with any one byte flipped (and its CRC
//!   re-sealed) either fails to decode or encodes back to exactly the
//!   flipped bytes.
//! * Every truncation of every record fails to decode, without a panic.
//! * A forged count costs no memory up front: a counting global allocator
//!   measures the peak a decode allocates on its own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hylite_common::{crc32, Chunk, ColumnVector, DataType, Field, HyError, Result, Schema, Value};
use hylite_storage::backup::BackupMeta;
use hylite_storage::checkpoint::{BootstrapBundle, CheckpointImage, ShippedSegment, TableManifest};
use hylite_storage::files::{open_framed, seal_framed, Sealed};
use hylite_storage::segment::{encode_segment, encode_segment_header, validate_segment_bytes};
use hylite_storage::wal::{decode_commit_payload, encode_commit_frame};
use hylite_storage::{RedoOp, ReplRole, ReplState};

/// The system allocator, counting the bytes each thread holds and the
/// most it held since [`peak_during`] last reset it.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn count(grow: usize, shrink: usize) {
    let _ = LIVE.try_with(|live| {
        let now = (live.get() + grow).saturating_sub(shrink);
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` meets `GlobalAlloc`'s contract exactly when `System` does;
// the counting only updates thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: `p` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(p, layout) };
        count(0, layout.size());
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `p` came from `System` with `layout`, and `new_size`
        // meets `realloc`'s contract, as the caller guarantees.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            count(new_size, layout.size());
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the most bytes this thread held
/// beyond what it held before.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int64).with_qualifier("t"),
        Field::new("name", DataType::Varchar),
        Field::new("ok", DataType::Bool).not_null(),
    ])
}

/// A commit with one op of each of the four kinds.
fn commit_frame() -> Vec<u8> {
    let rows = Chunk::new(vec![
        ColumnVector::from_i64(vec![1, -2]),
        ColumnVector::from_values(DataType::Varchar, &[Value::from("a"), Value::Null]).unwrap(),
        ColumnVector::from_bool(vec![true, false]),
    ]);
    let ops = [
        RedoOp::CreateTable {
            name: "t".into(),
            schema: schema(),
        },
        RedoOp::Insert {
            table: "t".into(),
            rows,
        },
        RedoOp::Delete {
            table: "t".into(),
            row_ids: vec![0, 1, u64::MAX],
        },
        RedoOp::DropTable { name: "t".into() },
    ];
    encode_commit_frame(41, &ops)
}

/// Two tables, one with two segments and delete marks, one empty.
fn manifest_tables() -> Vec<TableManifest> {
    vec![
        TableManifest {
            name: "t".into(),
            schema: schema(),
            segments: vec![(2, 4096), (3, 17)],
            row_limit: 4113,
            deleted: vec![5, 4100],
        },
        TableManifest {
            name: "empty".into(),
            schema: Schema::new(vec![Field::new("x", DataType::Float64)]),
            segments: Vec::new(),
            row_limit: 0,
            deleted: Vec::new(),
        },
    ]
}

fn manifest() -> Vec<u8> {
    seal_framed(&CheckpointImage {
        base_lsn: 7,
        tables: manifest_tables(),
    })
}

fn bootstrap_bundle() -> Vec<u8> {
    let files = segments();
    let shipped = |id: u64, i: usize| ShippedSegment {
        id,
        bytes: files[i].1.clone(),
    };
    seal_framed(&BootstrapBundle {
        segments: vec![shipped(2, 1), shipped(3, 2)],
        manifest: manifest(),
    })
}

fn backup_metas() -> Vec<(&'static str, BackupMeta)> {
    let full = BackupMeta {
        base_lsn: 7,
        backup_lsn: 41,
        epoch: 0xFEED_F00D_DEAD_BEEF,
        verified: true,
        base: None,
        copied_segments: vec![2, 3],
        base_segments: Vec::new(),
        bytes: 9000,
    };
    let incremental = BackupMeta {
        verified: false,
        base: Some("/backups/full".into()),
        copied_segments: vec![4],
        base_segments: vec![2, 3],
        ..full.clone()
    };
    vec![("full", full), ("incremental", incremental)]
}

fn repl_state() -> ReplState {
    ReplState {
        role: ReplRole::Replica,
        epoch: 0xFEED_F00D_DEAD_BEEF,
    }
}

fn strings(values: &[Option<&str>]) -> ColumnVector {
    let values: Vec<Value> = values
        .iter()
        .map(|v| v.map_or(Value::Null, Value::from))
        .collect();
    ColumnVector::from_values(DataType::Varchar, &values).unwrap()
}

fn with_nulls(dt: DataType, values: &[Value]) -> ColumnVector {
    ColumnVector::from_values(dt, values).unwrap()
}

/// One small segment file per block encoding, with NULLs, every zone value
/// tag (absent, BIGINT, DOUBLE, BOOLEAN, VARCHAR) and one file of two
/// blocks per column.
fn segments() -> Vec<(&'static str, Vec<u8>)> {
    let long = "x".repeat(70);
    let plain = Chunk::new(vec![
        with_nulls(
            DataType::Int64,
            &[
                Value::Int(i64::MIN),
                Value::Null,
                Value::Int(0),
                Value::Int(i64::MAX),
            ],
        ),
        with_nulls(
            DataType::Float64,
            &[
                Value::Float(1.5),
                Value::Float(-2.0),
                Value::Null,
                Value::Float(3.25),
            ],
        ),
        with_nulls(
            DataType::Bool,
            &[
                Value::Bool(true),
                Value::Null,
                Value::Bool(false),
                Value::Bool(true),
            ],
        ),
        strings(&[Some(&long), Some("b"), None, Some("c")]),
        with_nulls(DataType::Int64, &vec![Value::Null; 4]),
    ]);
    let rle: Vec<Value> = (0..40)
        .map(|i| match i {
            7 => Value::Null,
            i if i < 20 => Value::Int(1 << 60),
            _ => Value::Int(-(1 << 60)),
        })
        .collect();
    let for_int: Vec<Value> = (0..40)
        .map(|i| {
            if i == 3 {
                Value::Null
            } else {
                Value::Int(1000 + (i * 7) % 13)
            }
        })
        .collect();
    let dict = strings(&[
        Some("red"),
        Some("green"),
        None,
        Some("red"),
        Some("blue"),
        Some("green"),
        Some("red"),
        Some("red"),
    ]);
    let rows = 4100;
    let two_blocks = Chunk::new(vec![
        ColumnVector::from_i64(vec![3; rows]),
        strings(&vec![Some("same"); rows]),
    ]);
    vec![
        ("plain", encode_segment(1, &plain).unwrap()),
        (
            "rle",
            encode_segment(2, &Chunk::new(vec![with_nulls(DataType::Int64, &rle)])).unwrap(),
        ),
        (
            "for",
            encode_segment(3, &Chunk::new(vec![with_nulls(DataType::Int64, &for_int)])).unwrap(),
        ),
        ("dict", encode_segment(4, &Chunk::new(vec![dict])).unwrap()),
        ("two blocks", encode_segment(5, &two_blocks).unwrap()),
    ]
}

/// Every pinned record as `(label, bytes)`.
fn records() -> Vec<(String, Vec<u8>)> {
    let mut records = vec![
        ("commit frame".to_owned(), commit_frame()),
        ("manifest".to_owned(), manifest()),
        ("bootstrap bundle".to_owned(), bootstrap_bundle()),
    ];
    for (label, meta) in backup_metas() {
        records.push((format!("backup meta {label}"), seal_framed(&meta)));
    }
    records.push(("replstate v2".to_owned(), seal_framed(&repl_state())));
    for (label, bytes) in segments() {
        let meta = validate_segment_bytes(&bytes).unwrap();
        let encodings: Vec<String> = meta
            .blocks
            .iter()
            .map(|col| {
                col.iter()
                    .map(|b| b.encoding.to_string())
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .collect();
        records.push((
            format!("segment {label} (encodings {})", encodings.join(",")),
            bytes,
        ));
    }
    records
}

fn golden_lines() -> Vec<String> {
    records()
        .into_iter()
        .map(|(label, bytes)| format!("encode {label}: {}", hex(&bytes)))
        .collect()
}

/// `cargo test --test storage_records -- --ignored --nocapture print_storage_records`
/// prints `tests/golden/storage_records.txt`.
#[test]
#[ignore = "prints the golden; run it by name"]
fn print_storage_records_for_the_golden() {
    for line in golden_lines() {
        println!("{line}");
    }
}

#[test]
fn every_record_encodes_as_pinned() {
    let want: Vec<&str> = include_str!("golden/storage_records.txt").lines().collect();
    let got = golden_lines();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    assert_eq!(got.len(), want.len(), "a golden line per record");
}

/// A record as a decoder sees it: its bytes, the range a flip may hit,
/// how to re-seal its CRC after an edit, and its decoder, which returns
/// the bytes the decoded record encodes back to.
struct Record {
    label: String,
    bytes: Vec<u8>,
    flips: std::ops::Range<usize>,
    reseal: fn(&mut [u8]),
    roundtrip: fn(&[u8]) -> Result<Vec<u8>>,
}

/// Re-seal a `[magic][version][record][crc32]` envelope.
fn reseal_envelope(bytes: &mut [u8]) {
    let n = bytes.len() - 4;
    let crc = crc32(&bytes[..n]);
    bytes[n..].copy_from_slice(&crc.to_le_bytes());
}

/// Re-seal a segment header's CRC, which its prelude carries.
fn reseal_segment(bytes: &mut [u8]) {
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    if let Some(header) = bytes.get(16..16 + header_len) {
        let crc = crc32(header);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    }
}

fn sealed<T: Sealed>(bytes: &[u8]) -> Result<Vec<u8>> {
    open_framed::<T>(bytes).map(|record| seal_framed(&record))
}

/// Every record the golden pins: the commit frame by its payload (the
/// frame's length and CRC are the WAL walk's), a segment file by its
/// prelude and header (its blocks ride along unchanged).
fn decodable_records() -> Vec<Record> {
    type Roundtrip = fn(&[u8]) -> Result<Vec<u8>>;
    let record =
        |label: &str, bytes: Vec<u8>, reseal: fn(&mut [u8]), roundtrip: Roundtrip| Record {
            label: label.to_owned(),
            flips: 0..bytes.len(),
            bytes,
            reseal,
            roundtrip,
        };
    let mut records = vec![
        record(
            "commit payload",
            commit_frame()[8..].to_vec(),
            |_| {},
            |bytes| {
                let (lsn, ops) = decode_commit_payload(bytes)?;
                Ok(encode_commit_frame(lsn, &ops)[8..].to_vec())
            },
        ),
        record(
            "manifest",
            manifest(),
            reseal_envelope,
            sealed::<CheckpointImage>,
        ),
        record(
            "bundle",
            bootstrap_bundle(),
            reseal_envelope,
            sealed::<BootstrapBundle>,
        ),
        record(
            "replstate",
            seal_framed(&repl_state()),
            reseal_envelope,
            sealed::<ReplState>,
        ),
    ];
    for (label, meta) in backup_metas() {
        records.push(record(
            label,
            seal_framed(&meta),
            reseal_envelope,
            sealed::<BackupMeta>,
        ));
    }
    for (label, bytes) in segments() {
        let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        records.push(Record {
            flips: 0..16 + header_len,
            ..record(label, bytes, reseal_segment, |bytes| {
                let head = encode_segment_header(&validate_segment_bytes(bytes)?);
                let blocks = bytes.get(head.len()..).unwrap_or_default();
                Ok([&head[..], blocks].concat())
            })
        });
    }
    records
}

#[test]
fn every_record_decodes_and_encodes_back_to_its_bytes() {
    for record in decodable_records() {
        let got = (record.roundtrip)(&record.bytes).unwrap();
        assert_eq!(got, record.bytes, "{}", record.label);
    }
}

#[test]
fn every_byte_flip_that_decodes_encodes_back_to_the_same_bytes() {
    // Each field has one encoding: a flip the decoder accepts names
    // another record, which must encode to exactly the flipped bytes. The
    // one exception is a schema's field name, which `Field::new`
    // lowercases.
    for record in decodable_records() {
        for i in record.flips.clone() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                let mut flipped = record.bytes.clone();
                flipped[i] ^= mask;
                (record.reseal)(&mut flipped);
                let Ok(encoded) = (record.roundtrip)(&flipped) else {
                    continue;
                };
                let mut canonical = flipped.clone();
                canonical[i] = canonical[i].to_ascii_lowercase();
                (record.reseal)(&mut canonical);
                assert!(
                    encoded == flipped || encoded == canonical,
                    "{}: byte {i} ^ {mask:#04x} decodes, but encodes back differently",
                    record.label
                );
            }
        }
    }
}

#[test]
fn every_truncation_of_every_record_fails_cleanly() {
    for record in decodable_records() {
        for cut in 0..record.bytes.len() {
            let mut truncated = record.bytes[..cut].to_vec();
            let got = (record.roundtrip)(&truncated);
            assert!(got.is_err(), "{}: cut at {cut} decodes", record.label);
            // The same cut with its CRC re-sealed reaches the record's
            // own decoder.
            if truncated.len() >= 16 {
                (record.reseal)(&mut truncated);
                let got = (record.roundtrip)(&truncated);
                assert!(
                    got.is_err(),
                    "{}: re-sealed cut at {cut} decodes",
                    record.label
                );
            }
        }
    }
}

#[test]
fn a_forged_op_count_allocates_no_more_than_the_payload_holds() {
    // 64 KiB of payload that declares u32::MAX ops and holds none.
    let mut payload = vec![0u8; 64 * 1024];
    payload[..8].copy_from_slice(&1u64.to_le_bytes());
    payload[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let (decoded, peak) = peak_during(|| decode_commit_payload(&payload));
    assert!(decoded.is_err(), "{decoded:?}");
    assert!(
        peak < 1 << 20,
        "decoding allocated {peak} bytes at its peak"
    );
}

#[test]
fn a_version_one_replication_state_is_refused() {
    // Version 1's own envelope: its CRC covered only role + epoch.
    let mut v1 = b"PRYH".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.push(1);
    v1.extend_from_slice(&7u64.to_le_bytes());
    let crc = crc32(&v1[8..17]);
    v1.extend_from_slice(&crc.to_le_bytes());
    let err = open_framed::<ReplState>(&v1).unwrap_err();
    assert!(matches!(&err, HyError::Storage(_)), "{err:?}");
    assert_eq!(
        err.message(),
        "replication state version 1 not supported (this build reads 2)"
    );
}
