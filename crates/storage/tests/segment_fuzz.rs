//! Adversarial segment-file decoding: every mutation of a valid segment
//! file — truncation, oversized length fields, bit flips, corrupted
//! dictionaries — must come back as a typed `HyError`, never a panic and
//! never an allocation sized by attacker-controlled fields.
//!
//! Same discipline as the wire-protocol fuzz harness: deterministic
//! mutation schedule, so any failure reproduces exactly.

use std::path::Path;
use std::sync::Arc;

use hylite_common::{
    crc32, Chunk, ColumnVector, DataType, FaultVfs, MetricsRegistry, Result, Value, Vfs,
};
use hylite_storage::segment::{encode_segment, encoding, validate_segment_bytes, SegmentMeta};
use hylite_storage::{BufferPool, DiskSegment, SegmentStore, ZoneRange, BLOCK_ROWS};

/// A range storage evaluates on column `col` of `dtype`: `lit <= col`,
/// with a literal that sits inside the corpus' values (so a dictionary
/// block is unpacked, not skipped).
fn probe_range(col: usize, dtype: DataType) -> ZoneRange {
    let lit = match dtype {
        DataType::Int64 => Value::Int(50),
        DataType::Float64 => Value::Float(1.0),
        _ => Value::from("tag_2"),
    };
    ZoneRange {
        col,
        lower: Some((lit, true)),
        upper: None,
    }
}

/// Validate the file and open it the way recovery and scans do: as a
/// segment of a store on a (memory) file system, behind a buffer pool.
fn open_segment(bytes: &[u8]) -> Result<(SegmentMeta, Arc<DiskSegment>)> {
    let meta = validate_segment_bytes(bytes)?;
    let vfs = FaultVfs::new();
    let pool = Arc::new(BufferPool::new(1 << 20, &MetricsRegistry::new()));
    let store = SegmentStore::open(Arc::new(vfs.clone()), Path::new("data"), pool)?;
    let mut file = vfs.create(&store.path_for(meta.id))?;
    file.write_all(bytes)?;
    file.sync()?;
    let segment = store.open_segment(meta.id)?;
    Ok((meta, segment))
}

/// Decode the entire file: header validation plus every block of every
/// column, decoded and selected from — exactly what recovery and the scan
/// path run.
fn full_decode(bytes: &[u8]) -> Result<SegmentMeta> {
    let (meta, segment) = open_segment(bytes)?;
    for (c, &dtype) in meta.dtypes.iter().enumerate() {
        let decoded = segment.read_rows(0, meta.rows, Some(&[c]))?;
        let mut at = Vec::new();
        let (selected, _) = segment.read_selected(
            0,
            meta.rows,
            Some(&[c]),
            &[probe_range(c, dtype)],
            None,
            Some(&mut at),
        )?;
        assert!(
            selected.len() <= decoded.len() && at.iter().all(|&i| i < meta.rows),
            "selection outside the segment"
        );
    }
    Ok(meta)
}

fn must_not_panic(bytes: &[u8]) {
    let _ = full_decode(bytes);
}

/// Segments covering every encoding the format speaks: plain ints,
/// RLE runs, FOR bitpacking, dictionary strings, plain strings, floats,
/// bools, NULLs, and a multi-block column.
fn corpus() -> Vec<Vec<u8>> {
    let runny: Vec<i64> = (0..1000)
        .map(|i| if i < 500 { 42 } else { 1 << 40 })
        .collect();
    let chunks = [
        Chunk::new(vec![
            ColumnVector::from_i64((0..100).map(|i| i * 1_000_003).collect()),
            ColumnVector::from_f64((0..100).map(|i| i as f64 * 0.5).collect()),
        ]),
        Chunk::new(vec![ColumnVector::from_i64(runny)]),
        Chunk::new(vec![
            ColumnVector::from_values(
                DataType::Varchar,
                &(0..200)
                    .map(|i| Value::from(format!("tag_{}", i % 5).as_str()))
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            ColumnVector::from_values(
                DataType::Varchar,
                &(0..200)
                    .map(|i| {
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::from(format!("unique-{i}").as_str())
                        }
                    })
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
        ]),
        Chunk::new(vec![ColumnVector::from_values(
            DataType::Bool,
            &(0..64)
                .map(|i| {
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Bool(i % 2 == 0)
                    }
                })
                .collect::<Vec<_>>(),
        )
        .unwrap()]),
        // Multi-block column: spans two zone-mapped blocks.
        Chunk::new(vec![ColumnVector::from_i64(
            (0..(BLOCK_ROWS as i64 + 17)).collect(),
        )]),
    ];
    chunks
        .iter()
        .enumerate()
        .map(|(i, c)| encode_segment(i as u64 + 1, c).unwrap())
        .collect()
}

#[test]
fn corpus_roundtrips_clean() {
    for bytes in corpus() {
        full_decode(&bytes).expect("pristine segment must decode");
    }
}

#[test]
fn every_truncation_errors_cleanly() {
    for bytes in corpus() {
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            assert!(
                full_decode(truncated).is_err(),
                "a {}-byte prefix of a {}-byte segment decoded successfully",
                cut,
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_caught_or_harmless() {
    // Bit flips anywhere in the file must never panic. Flips in the
    // prelude or header are caught by the header CRC; flips in a block
    // body are caught by the block CRC (the header stays valid).
    for bytes in corpus() {
        let header_end = 16 + u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte_idx] ^= 1 << bit;
                let result = full_decode(&mutated);
                if byte_idx >= header_end {
                    assert!(
                        result.is_err(),
                        "bit {bit} of body byte {byte_idx} flipped undetected"
                    );
                } else {
                    // Prelude/header flips: a flip in the stored CRC field
                    // itself or the length fields also errors; all that
                    // matters is that nothing panics and nothing bogus
                    // decodes.
                    assert!(result.is_err(), "header flip at {byte_idx} went unnoticed");
                }
            }
        }
    }
}

/// Re-CRC mutations defeat the checksum on purpose: corrupt the payload,
/// then recompute the trailing block CRC so decoding proceeds into the
/// semantic validators (run sums, bit widths, dictionary ranges).
fn recrc_block(bytes: &mut [u8], offset: usize, len: usize) {
    let crc = crc32(&bytes[offset..offset + len - 4]);
    bytes[offset + len - 4..offset + len].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn semantic_corruption_with_valid_crc_is_rejected() {
    for bytes in corpus() {
        let meta = validate_segment_bytes(&bytes).unwrap();
        for col_blocks in &meta.blocks {
            for bm in col_blocks {
                let (off, len) = (bm.offset as usize, bm.len as usize);
                // Saturate every payload byte in turn (skip the validity
                // flag at +0 — 0xFF there is an invalid flag, also fine).
                for target in off..off + len - 4 {
                    let mut mutated = bytes.clone();
                    mutated[target] = 0xFF;
                    recrc_block(&mut mutated, off, len);
                    // May decode to different values; must not panic and
                    // must not misreport the row count when it does.
                    if let Ok(m) = full_decode(&mutated) {
                        assert_eq!(m.rows, meta.rows);
                    }
                }
            }
        }
    }
}

#[test]
fn out_of_range_dictionary_index_is_rejected() {
    // A dictionary block with 5 entries; force the packed index area to
    // all-ones so indexes point far past the dictionary.
    let chunk = Chunk::new(vec![ColumnVector::from_values(
        DataType::Varchar,
        &(0..100)
            .map(|i| Value::from(format!("k{}", i % 5).as_str()))
            .collect::<Vec<_>>(),
    )
    .unwrap()]);
    let mut bytes = encode_segment(7, &chunk).unwrap();
    let meta = validate_segment_bytes(&bytes).unwrap();
    let bm = &meta.blocks[0][0];
    assert_eq!(
        bm.encoding,
        encoding::DICT_STR,
        "test premise: dict-encoded"
    );
    let (off, len) = (bm.offset as usize, bm.len as usize);
    // Packed indexes are the tail of the payload; blasting the last 8
    // pre-CRC bytes corrupts indexes without touching the dictionary.
    for b in &mut bytes[off + len - 12..off + len - 4] {
        *b = 0xFF;
    }
    recrc_block(&mut bytes, off, len);
    let err = full_decode(&bytes).unwrap_err().to_string();
    assert!(
        err.contains("out of range") || err.contains("dictionary"),
        "wrong error for corrupt dictionary indexes: {err}"
    );
}

/// Encode one column as segment 7 and return the bytes with its first
/// block's location.
fn one_block(col: ColumnVector, want: u8) -> (Vec<u8>, usize, usize) {
    let bytes = encode_segment(7, &Chunk::new(vec![col])).unwrap();
    let bm = &validate_segment_bytes(&bytes).unwrap().blocks[0][0];
    assert_eq!(bm.encoding, want, "test premise: encoding");
    (bytes, bm.offset as usize, bm.len as usize)
}

/// Select with `range` on the (corrupted, re-CRC'd) first column, reading
/// no other: the positions of the rows it keeps.
fn select_first_column(bytes: &[u8], range: &ZoneRange) -> Result<Vec<usize>> {
    let (meta, segment) = open_segment(bytes)?;
    let mut at = Vec::new();
    segment.read_selected(
        0,
        meta.rows,
        Some(&[]),
        std::slice::from_ref(range),
        None,
        Some(&mut at),
    )?;
    Ok(at)
}

#[test]
fn select_on_corrupt_encoded_blocks_errors_cleanly() {
    let int_range = probe_range(0, DataType::Int64);
    // RLE: run counts that no longer sum to the block's rows. Payload is
    // [validity flag][nruns u32][(value u64, count u32)...]: the first
    // run's count sits at +1+4+8.
    let runny: Vec<i64> = (0..1000)
        .map(|i| if i < 500 { 42 } else { 1 << 40 })
        .collect();
    let (bytes, off, len) = one_block(ColumnVector::from_i64(runny), encoding::RLE_INT);
    for count in [0u32, 499, 501, u32::MAX] {
        let mut mutated = bytes.clone();
        mutated[off + 13..off + 17].copy_from_slice(&count.to_le_bytes());
        recrc_block(&mut mutated, off, len);
        let err = select_first_column(&mutated, &int_range)
            .unwrap_err()
            .to_string();
        assert!(err.contains("RLE"), "count {count}: {err}");
    }
    // ... and a run count far beyond what the payload can hold.
    let mut mutated = bytes.clone();
    mutated[off + 1..off + 5].copy_from_slice(&u32::MAX.to_le_bytes());
    recrc_block(&mut mutated, off, len);
    assert!(select_first_column(&mutated, &int_range).is_err());

    // FOR: bit widths above 57, and a width the packed area is too short for.
    let dense: Vec<i64> = (0..1000).map(|i| 1_000_000 + i).collect();
    let (bytes, off, len) = one_block(ColumnVector::from_i64(dense), encoding::FOR_INT);
    for width in [58u8, 64, 255, 57] {
        let mut mutated = bytes.clone();
        mutated[off + 9] = width; // [flag][base u64][width]
        recrc_block(&mut mutated, off, len);
        let err = select_first_column(&mutated, &int_range)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("width") || err.contains("truncated"),
            "width {width}: {err}"
        );
    }

    // FOR: a base the deltas carry past i64::MAX.
    let mut mutated = bytes.clone();
    mutated[off + 1..off + 9].copy_from_slice(&(i64::MAX - 10).to_le_bytes());
    recrc_block(&mut mutated, off, len);
    for result in [
        select_first_column(&mutated, &int_range).map(|_| ()),
        full_decode(&mutated).map(|_| ()),
    ] {
        let err = result.unwrap_err().to_string();
        assert!(err.contains("overflows"), "{err}");
    }

    // Dictionary: an index past the dictionary is an error to select on as
    // it is to decode; an unsorted dictionary is refused before the binary
    // search runs on it.
    let tags = ColumnVector::from_str((0..100).map(|i| format!("k{}", i % 5)).collect::<Vec<_>>());
    let (bytes, off, len) = one_block(tags, encoding::DICT_STR);
    let mut mutated = bytes.clone();
    for b in &mut mutated[off + len - 12..off + len - 4] {
        *b = 0xFF;
    }
    recrc_block(&mut mutated, off, len);
    let str_range = ZoneRange {
        col: 0,
        lower: Some((Value::from("k0"), true)),
        upper: Some((Value::from("k4"), true)),
    };
    for result in [
        select_first_column(&mutated, &str_range).map(|_| ()),
        full_decode(&mutated).map(|_| ()),
    ] {
        let err = result.unwrap_err().to_string();
        assert!(err.contains("dictionary index out of range"), "{err}");
    }
    let mut mutated = bytes.clone();
    // Entries are [len u32]["k0"]...: swap the first two entries' digits.
    let first = off + 1 + 4 + 4;
    mutated[first + 1] = b'1';
    mutated[first + 2 + 4 + 1] = b'0';
    recrc_block(&mut mutated, off, len);
    let err = select_first_column(&mutated, &str_range)
        .unwrap_err()
        .to_string();
    assert!(err.contains("ascending"), "{err}");
}

#[test]
fn oversized_header_length_is_rejected_before_allocation() {
    // Claim a near-4GiB header in a tiny file: the validator must refuse
    // based on the declared length alone.
    let bytes = corpus().remove(0);
    let mut mutated = bytes.clone();
    mutated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = validate_segment_bytes(&mutated).unwrap_err().to_string();
    assert!(err.contains("header"), "{err}");

    // Same with a header length that exceeds the file but not the cap.
    let mut mutated = bytes;
    let too_big = (mutated.len() as u32).saturating_add(1);
    mutated[8..12].copy_from_slice(&too_big.to_le_bytes());
    assert!(validate_segment_bytes(&mutated).is_err());
}

#[test]
fn oversized_block_length_is_rejected_before_allocation() {
    // Patch the first directory entry's block length to u32::MAX and fix
    // the header CRC: the block would extend past the file, so the header
    // validator must reject it without ever touching block data.
    let bytes = corpus().remove(0);
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let meta = validate_segment_bytes(&bytes).unwrap();
    let ncols = meta.dtypes.len();
    // Directory starts after [id:8][rows:8][raw:8][ncols:4][tags][nblocks:4].
    let dir_start = 16 + 8 + 8 + 8 + 4 + ncols + 4;
    let mut mutated = bytes.clone();
    // Entry layout: [offset:8][len:4]...
    mutated[dir_start + 8..dir_start + 12].copy_from_slice(&u32::MAX.to_le_bytes());
    let crc = crc32(&mutated[16..16 + header_len]);
    mutated[12..16].copy_from_slice(&crc.to_le_bytes());
    let err = validate_segment_bytes(&mutated).unwrap_err().to_string();
    assert!(
        err.contains("block") || err.contains("past"),
        "wrong error for oversized block length: {err}"
    );
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let bytes = corpus().remove(0);
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    let err = validate_segment_bytes(&wrong_magic)
        .unwrap_err()
        .to_string();
    assert!(err.contains("magic"), "{err}");

    let mut wrong_version = bytes;
    wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
    let err = validate_segment_bytes(&wrong_version)
        .unwrap_err()
        .to_string();
    assert!(err.contains("version") || err.contains("99"), "{err}");
}

#[test]
fn random_garbage_never_panics() {
    // SplitMix64-driven garbage of assorted sizes, including some that
    // start with the real magic so parsing gets past the first gate.
    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    let mut state = 0xC0FF_EE00_D15E_A5E5u64;
    for case in 0..256 {
        let len = (case * 7) % 512;
        let mut bytes = Vec::with_capacity(len);
        while bytes.len() < len {
            state = splitmix64(state);
            bytes.extend_from_slice(&state.to_le_bytes());
        }
        bytes.truncate(len);
        must_not_panic(&bytes);
        if bytes.len() >= 8 {
            bytes[0..4].copy_from_slice(&0x4859_5347u32.to_le_bytes());
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
            must_not_panic(&bytes);
        }
    }
}
