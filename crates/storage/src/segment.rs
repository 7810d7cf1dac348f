//! Immutable compressed column segments with per-block zone maps.
//!
//! A sealed segment is one table segment's worth of rows (at most
//! [`crate::SEGMENT_ROWS`]) written to its own file, column by column, in
//! blocks of [`BLOCK_ROWS`] rows. Each block is independently encoded,
//! CRC-framed, and carries a zone map (min/max over non-NULL values plus
//! a NULL count), so a scan with a range predicate can skip whole blocks
//! without reading them — the Shark-style "cold data becomes skipped
//! I/O" property — and a buffer-pool read pulls exactly one block.
//!
//! ## File layout
//!
//! ```text
//! prelude (16 bytes):
//!     [u32 magic "HYSG"] [u32 version] [u32 header_len] [u32 header_crc]
//! header (header_len bytes, covered by header_crc):
//!     [u64 segment_id] [u64 rows] [u64 raw_bytes] [u32 ncols]
//!     [u8 dtype ...ncols]
//!     [u32 nblocks]
//!     directory, ncols * nblocks entries in column-major order:
//!         [u64 offset] [u32 len] [u32 rows] [u8 encoding]
//!         [u32 null_count] [zone min] [zone max]
//! blocks, at their directory offsets:
//!     [payload] [u32 crc32(payload)]
//! ```
//!
//! A zone value is a 1-byte tag (`0` absent, `1` i64, `2` f64, `3` bool,
//! `4` string) followed by the value. Zone maps are absent when a block
//! is all-NULL, contains NaN floats, or holds strings longer than
//! [`MAX_ZONE_STR`] bytes (a truncated string max would prune wrongly).
//!
//! ## Block encodings
//!
//! The encodings *are* the compression — no external codec:
//!
//! * `Plain` — raw values (8-byte ints/floats, bit-packed bools,
//!   length-prefixed strings).
//! * `RleInt` — (value, run-length) pairs for runny int columns.
//! * `ForInt` — frame-of-reference: a base plus bit-packed deltas at the
//!   minimal width for the block's value range.
//! * `DictStr` — sorted unique strings plus bit-packed indexes.
//!
//! Every payload opens with the block's NULL bitmap (if any), so
//! nullability round-trips exactly. The encoder picks whichever encoding
//! is smallest for each block.
//!
//! Decoding is hardened the same way the wire protocol is: lengths are
//! validated against the actual file size *before* any allocation,
//! dictionary indexes are range-checked, run counts must sum to the
//! declared row count, and every block CRC is verified.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, Weak};

use hylite_common::faultfs::Vfs;
use hylite_common::wire::{self, ByteReader};
use hylite_common::{crc32, Bitmap, Chunk, ColumnVector, DataType, HyError, Result, Value};

use crate::files::write_durable;
use crate::pool::BufferPool;

/// Magic number opening a segment file (`"HYSG"`).
pub const SEGMENT_MAGIC: u32 = 0x4859_5347;
/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Rows per encoded block — the zone-map and buffer-pool granularity.
pub const BLOCK_ROWS: usize = 4096;
/// Subdirectory of the data directory holding segment files.
pub const SEGMENT_DIR: &str = "segments";
/// Longest string kept in a zone map; blocks with longer strings carry no
/// zone map (a truncated maximum would prune blocks that in fact match).
pub const MAX_ZONE_STR: usize = 64;
/// Upper bound accepted for `header_len` — rejects forged preludes before
/// the header allocation.
const MAX_HEADER_BYTES: u32 = 16 * 1024 * 1024;
/// Upper bound accepted for column count (matches the wire codec's u16).
const MAX_COLS: usize = u16::MAX as usize;

/// Block encodings (the `encoding` directory byte).
pub mod encoding {
    /// Raw values.
    pub const PLAIN: u8 = 0;
    /// Run-length encoded i64s.
    pub const RLE_INT: u8 = 1;
    /// Frame-of-reference bit-packed i64s.
    pub const FOR_INT: u8 = 2;
    /// Dictionary-encoded strings.
    pub const DICT_STR: u8 = 3;
}

/// File name of segment `id` inside [`SEGMENT_DIR`].
pub fn segment_file_name(id: u64) -> String {
    format!("seg_{id:016x}.hyseg")
}

/// Parse a [`segment_file_name`] back to its id (`None` for foreign files).
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("seg_")?.strip_suffix(".hyseg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

// ---------------------------------------------------------------------------
// Zone maps
// ---------------------------------------------------------------------------

/// A conjunct usable for zone-map pruning: `lower <= col <= upper` with
/// per-bound inclusivity. The executor extracts these from AND-trees of
/// comparison predicates; columns are indexed in *table* (snapshot)
/// space.
#[derive(Debug, Clone)]
pub struct ZoneRange {
    /// Table column the bounds constrain.
    pub col: usize,
    /// Lower bound and whether it is inclusive.
    pub lower: Option<(Value, bool)>,
    /// Upper bound and whether it is inclusive.
    pub upper: Option<(Value, bool)>,
}

/// Total-order-free comparison between zone values of possibly mixed
/// numeric types. `None` (incomparable, e.g. NaN or type mismatch) makes
/// pruning conservatively keep the block.
fn zone_cmp(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    use Value::*;
    match (a, b) {
        (Int(x), Int(y)) => Some(x.cmp(y)),
        (Float(x), Float(y)) => x.partial_cmp(y),
        (Int(x), Float(y)) => (*x as f64).partial_cmp(y),
        (Float(x), Int(y)) => x.partial_cmp(&(*y as f64)),
        (Bool(x), Bool(y)) => Some(x.cmp(y)),
        (Str(x), Str(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// Zone map + location of one encoded block.
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Byte offset of the block body from the start of the file.
    pub offset: u64,
    /// Body length in bytes (trailing CRC included).
    pub len: u32,
    /// Rows in this block (`BLOCK_ROWS` except possibly the last).
    pub rows: u32,
    /// One of the [`encoding`] constants.
    pub encoding: u8,
    /// NULL rows in this block.
    pub null_count: u32,
    /// Minimum non-NULL value, if a zone map was recorded.
    pub min: Option<Value>,
    /// Maximum non-NULL value, if a zone map was recorded.
    pub max: Option<Value>,
}

impl BlockMeta {
    /// Whether any row of this block *could* satisfy `range`. False means
    /// the block is provably free of matches and can be skipped. SQL
    /// comparisons with NULL are never true, so an all-NULL block never
    /// matches; a block without a zone map is conservatively kept.
    pub fn may_match(&self, range: &ZoneRange) -> bool {
        use std::cmp::Ordering::*;
        if self.null_count >= self.rows {
            return false;
        }
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return true;
        };
        if let Some((lo, inclusive)) = &range.lower {
            match zone_cmp(max, lo) {
                Some(Less) => return false,
                Some(Equal) if !inclusive => return false,
                _ => {}
            }
        }
        if let Some((hi, inclusive)) = &range.upper {
            match zone_cmp(min, hi) {
                Some(Greater) => return false,
                Some(Equal) if !inclusive => return false,
                _ => {}
            }
        }
        true
    }
}

/// Decoded segment header: everything needed to prune and to locate
/// blocks, without touching any block data.
#[derive(Debug, Clone)]
pub struct SegmentMeta {
    /// Segment id (also encoded in the file name).
    pub id: u64,
    /// Total rows in the segment.
    pub rows: usize,
    /// Approximate in-memory (uncompressed) bytes of the sealed chunk,
    /// recorded at encode time — the numerator of the compression ratio.
    pub raw_bytes: u64,
    /// Column types.
    pub dtypes: Vec<DataType>,
    /// Block directory, `blocks[col][block]`.
    pub blocks: Vec<Vec<BlockMeta>>,
    /// Total file size in bytes.
    pub file_len: u64,
}

impl SegmentMeta {
    /// Number of row-blocks (same for every column).
    pub fn nblocks(&self) -> usize {
        self.rows.div_ceil(BLOCK_ROWS)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Int64 => 0,
        DataType::Float64 => 1,
        DataType::Bool => 2,
        DataType::Varchar => 3,
        DataType::Null => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Int64,
        1 => DataType::Float64,
        2 => DataType::Bool,
        3 => DataType::Varchar,
        other => {
            return Err(HyError::Storage(format!(
                "segment: unknown column type tag {other}"
            )))
        }
    })
}

/// Pack `width`-bit values LSB-first into a byte stream.
fn pack_bits(values: impl Iterator<Item = u64>, width: u32, out: &mut Vec<u8>) {
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    for v in values {
        let v = if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        };
        acc |= v << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push((acc & 0xFF) as u8);
            acc >>= 8;
            nbits -= 8;
        }
        // `acc` can hold at most 7 leftover bits plus the next value only
        // if width <= 57; for wider values flush eagerly.
        if width > 57 {
            while nbits > 0 {
                out.push((acc & 0xFF) as u8);
                acc >>= 8;
                nbits = nbits.saturating_sub(8);
            }
            acc = 0;
        }
    }
    while nbits > 0 {
        out.push((acc & 0xFF) as u8);
        acc >>= 8;
        nbits = nbits.saturating_sub(8);
    }
}

/// Unpack `rows` `width`-bit values packed by [`pack_bits`] (width <= 57).
fn unpack_bits(bytes: &[u8], rows: usize, width: u32) -> Result<Vec<u64>> {
    let need = (rows as u64 * width as u64).div_ceil(8) as usize;
    if bytes.len() < need {
        return Err(HyError::Storage(format!(
            "segment block truncated: {need} packed bytes expected, {} present",
            bytes.len()
        )));
    }
    let mut out = Vec::with_capacity(rows);
    let mut acc: u64 = 0;
    let mut nbits: u32 = 0;
    let mut pos = 0usize;
    let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
    for _ in 0..rows {
        while nbits < width {
            acc |= (bytes[pos] as u64) << nbits;
            pos += 1;
            nbits += 8;
        }
        out.push(acc & mask);
        acc >>= width;
        nbits -= width;
    }
    Ok(out)
}

fn put_bitmap_bits(buf: &mut Vec<u8>, len: usize, get: impl Fn(usize) -> bool) {
    let mut byte = 0u8;
    for i in 0..len {
        if get(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(byte);
            byte = 0;
        }
    }
    if !len.is_multiple_of(8) {
        buf.push(byte);
    }
}

fn read_bitmap_bits(r: &mut ByteReader<'_>, len: usize) -> Result<Vec<bool>> {
    let bytes = r.take(len.div_ceil(8))?;
    Ok((0..len)
        .map(|i| (bytes[i / 8] >> (i % 8)) & 1 == 1)
        .collect())
}

fn put_zone_value(buf: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => buf.push(0),
        Some(Value::Int(x)) => {
            buf.push(1);
            wire::put_u64(buf, *x as u64);
        }
        Some(Value::Float(x)) => {
            buf.push(2);
            wire::put_u64(buf, x.to_bits());
        }
        Some(Value::Bool(x)) => {
            buf.push(3);
            buf.push(u8::from(*x));
        }
        Some(Value::Str(s)) => {
            buf.push(4);
            wire::put_str(buf, s);
        }
        Some(Value::Null) => buf.push(0),
    }
}

fn read_zone_value(r: &mut ByteReader<'_>) -> Result<Option<Value>> {
    Ok(match r.u8()? {
        0 => None,
        1 => Some(Value::Int(r.u64()? as i64)),
        2 => Some(Value::Float(f64::from_bits(r.u64()?))),
        3 => Some(Value::Bool(r.u8()? != 0)),
        4 => Some(Value::Str(r.str()?)),
        other => {
            return Err(HyError::Storage(format!(
                "segment: unknown zone value tag {other}"
            )))
        }
    })
}

fn zone_value_len(v: &Option<Value>) -> usize {
    match v {
        None | Some(Value::Null) => 1,
        Some(Value::Int(_)) | Some(Value::Float(_)) => 9,
        Some(Value::Bool(_)) => 2,
        Some(Value::Str(s)) => 1 + 4 + s.len(),
    }
}

struct EncodedBlock {
    body: Vec<u8>,
    rows: u32,
    encoding: u8,
    null_count: u32,
    min: Option<Value>,
    max: Option<Value>,
}

/// Compute a zone map over the valid values of a block slice.
fn compute_zone(col: &ColumnVector) -> (Option<Value>, Option<Value>) {
    let mut min: Option<Value> = None;
    let mut max: Option<Value> = None;
    for i in 0..col.len() {
        if !col.is_valid(i) {
            continue;
        }
        let v = col.value(i);
        match &v {
            Value::Float(f) if f.is_nan() => return (None, None),
            Value::Str(s) if s.len() > MAX_ZONE_STR => return (None, None),
            _ => {}
        }
        match &min {
            None => min = Some(v.clone()),
            Some(m) => {
                if zone_cmp(&v, m) == Some(std::cmp::Ordering::Less) {
                    min = Some(v.clone());
                }
            }
        }
        match &max {
            None => max = Some(v),
            Some(m) => {
                if zone_cmp(&v, m) == Some(std::cmp::Ordering::Greater) {
                    max = Some(v);
                }
            }
        }
    }
    (min, max)
}

fn encode_block(col: &ColumnVector) -> EncodedBlock {
    let rows = col.len();
    let null_count = col.null_count() as u32;
    let (min, max) = compute_zone(col);
    let mut payload = Vec::with_capacity(rows * 8 + rows / 8 + 16);
    match col.validity() {
        Some(bm) if !bm.all_set() => {
            payload.push(1);
            put_bitmap_bits(&mut payload, rows, |i| bm.get(i));
        }
        _ => payload.push(0),
    }
    let enc = match col {
        ColumnVector::Int64 { data, .. } => encode_int_data(data, &mut payload),
        ColumnVector::Float64 { data, .. } => {
            for v in data {
                payload.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            encoding::PLAIN
        }
        ColumnVector::Bool { data, .. } => {
            put_bitmap_bits(&mut payload, rows, |i| data[i]);
            encoding::PLAIN
        }
        ColumnVector::Varchar { data, .. } => encode_str_data(data, &mut payload),
    };
    let crc = crc32(&payload);
    wire::put_u32(&mut payload, crc);
    EncodedBlock {
        body: payload,
        rows: rows as u32,
        encoding: enc,
        null_count,
        min,
        max,
    }
}

/// Pick the smallest of plain / RLE / frame-of-reference for an i64 block
/// and append its encoding-specific bytes.
fn encode_int_data(data: &[i64], payload: &mut Vec<u8>) -> u8 {
    let rows = data.len();
    let plain_size = rows * 8;
    // Run census.
    let mut runs = 0usize;
    let mut prev: Option<i64> = None;
    for &v in data {
        if prev != Some(v) {
            runs += 1;
            prev = Some(v);
        }
    }
    let rle_size = 4 + runs * 12;
    // Frame-of-reference width over the physical values (NULL slots hold
    // the column default and must round-trip bit-exactly too).
    let (phys_min, phys_max) = data
        .iter()
        .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let (for_width, for_size) = if rows == 0 {
        (0u32, usize::MAX)
    } else {
        let range = (phys_max as i128 - phys_min as i128) as u128;
        let width = 128 - range.leading_zeros();
        if width > 57 {
            (0, usize::MAX) // wider than the packer supports: plain wins anyway
        } else {
            (width, 9 + (rows as u64 * width as u64).div_ceil(8) as usize)
        }
    };
    if rle_size < plain_size && rle_size <= for_size {
        wire::put_u32(payload, runs as u32);
        let mut iter = data.iter();
        if let Some(&first) = iter.next() {
            let mut value = first;
            let mut count: u32 = 1;
            for &v in iter {
                if v == value {
                    count += 1;
                } else {
                    wire::put_u64(payload, value as u64);
                    wire::put_u32(payload, count);
                    value = v;
                    count = 1;
                }
            }
            wire::put_u64(payload, value as u64);
            wire::put_u32(payload, count);
        }
        encoding::RLE_INT
    } else if for_size < plain_size {
        wire::put_u64(payload, phys_min as u64);
        payload.push(for_width as u8);
        pack_bits(
            data.iter().map(|&v| (v as i128 - phys_min as i128) as u64),
            for_width,
            payload,
        );
        encoding::FOR_INT
    } else {
        for &v in data {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        encoding::PLAIN
    }
}

/// Dictionary-encode a string block when the dictionary pays for itself.
fn encode_str_data(data: &[String], payload: &mut Vec<u8>) -> u8 {
    let rows = data.len();
    let plain_size: usize = data.iter().map(|s| 4 + s.len()).sum();
    let mut dict: BTreeMap<&str, u32> = BTreeMap::new();
    for s in data {
        let next = dict.len() as u32;
        dict.entry(s.as_str()).or_insert(next);
    }
    // BTreeMap iteration is sorted; re-number so indexes follow sort order
    // (deterministic files regardless of row order of first occurrence).
    for (i, (_, idx)) in dict.iter_mut().enumerate() {
        *idx = i as u32;
    }
    let dict_entries_size: usize = dict.keys().map(|s| 4 + s.len()).sum();
    let width = if dict.len() <= 1 {
        0u32
    } else {
        32 - (dict.len() as u32 - 1).leading_zeros()
    };
    let dict_size = 4 + dict_entries_size + 1 + (rows as u64 * width as u64).div_ceil(8) as usize;
    if dict_size < plain_size {
        wire::put_u32(payload, dict.len() as u32);
        for s in dict.keys() {
            wire::put_str(payload, s);
        }
        payload.push(width as u8);
        pack_bits(data.iter().map(|s| dict[s.as_str()] as u64), width, payload);
        encoding::DICT_STR
    } else {
        for s in data {
            wire::put_str(payload, s);
        }
        encoding::PLAIN
    }
}

/// Serialize a chunk as a complete segment file.
pub fn encode_segment(id: u64, chunk: &Chunk) -> Result<Vec<u8>> {
    let rows = chunk.len();
    let ncols = chunk.num_columns();
    if ncols == 0 || ncols > MAX_COLS {
        return Err(HyError::Storage(format!(
            "segment must have 1..={MAX_COLS} columns, got {ncols}"
        )));
    }
    let nblocks = rows.div_ceil(BLOCK_ROWS);
    let raw_bytes = chunk.heap_bytes() as u64;
    let mut blocks: Vec<EncodedBlock> = Vec::with_capacity(ncols * nblocks);
    for col in chunk.columns() {
        for blk in 0..nblocks {
            let start = blk * BLOCK_ROWS;
            let n = (rows - start).min(BLOCK_ROWS);
            blocks.push(encode_block(&col.slice(start, n)));
        }
    }
    // Directory entry sizes are offset-independent, so the header length
    // is known before offsets are assigned.
    let dir_len: usize = blocks
        .iter()
        .map(|b| 8 + 4 + 4 + 1 + 4 + zone_value_len(&b.min) + zone_value_len(&b.max))
        .sum();
    let header_len = 8 + 8 + 8 + 4 + ncols + 4 + dir_len;
    let mut header = Vec::with_capacity(header_len);
    wire::put_u64(&mut header, id);
    wire::put_u64(&mut header, rows as u64);
    wire::put_u64(&mut header, raw_bytes);
    wire::put_u32(&mut header, ncols as u32);
    for col in chunk.columns() {
        header.push(dtype_tag(col.data_type()));
    }
    wire::put_u32(&mut header, nblocks as u32);
    let mut offset = (16 + header_len) as u64;
    for b in &blocks {
        wire::put_u64(&mut header, offset);
        wire::put_u32(&mut header, b.body.len() as u32);
        wire::put_u32(&mut header, b.rows);
        header.push(b.encoding);
        wire::put_u32(&mut header, b.null_count);
        put_zone_value(&mut header, &b.min);
        put_zone_value(&mut header, &b.max);
        offset += b.body.len() as u64;
    }
    debug_assert_eq!(header.len(), header_len);
    let mut out =
        Vec::with_capacity(16 + header_len + blocks.iter().map(|b| b.body.len()).sum::<usize>());
    wire::put_u32(&mut out, SEGMENT_MAGIC);
    wire::put_u32(&mut out, SEGMENT_VERSION);
    wire::put_u32(&mut out, header_len as u32);
    wire::put_u32(&mut out, crc32(&header));
    out.extend_from_slice(&header);
    for b in &blocks {
        out.extend_from_slice(&b.body);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Parse and validate a segment header given the file's prelude + header
/// bytes and the total file length.
pub fn decode_segment_meta(prelude: &[u8], header: &[u8], file_len: u64) -> Result<SegmentMeta> {
    if prelude.len() != 16 {
        return Err(HyError::Storage(format!(
            "segment prelude is {} bytes, want 16",
            prelude.len()
        )));
    }
    let mut p = ByteReader::new(prelude);
    let magic = p.u32()?;
    if magic != SEGMENT_MAGIC {
        return Err(HyError::Storage(format!(
            "not a HyLite segment (magic {magic:#010x})"
        )));
    }
    let version = p.u32()?;
    if version != SEGMENT_VERSION {
        return Err(HyError::Storage(format!(
            "segment version {version} not supported (this build reads {SEGMENT_VERSION})"
        )));
    }
    let header_len = p.u32()?;
    let stored_crc = p.u32()?;
    if header.len() != header_len as usize {
        return Err(HyError::Storage(format!(
            "segment header is {} bytes, prelude declares {header_len}",
            header.len()
        )));
    }
    if crc32(header) != stored_crc {
        return Err(HyError::Storage(
            "segment header failed its CRC check (corrupted)".into(),
        ));
    }
    let mut r = ByteReader::new(header);
    let id = r.u64()?;
    let rows = r.u64()? as usize;
    let raw_bytes = r.u64()?;
    let ncols = r.u32()? as usize;
    if ncols == 0 || ncols > MAX_COLS {
        return Err(HyError::Storage(format!(
            "segment declares {ncols} columns (limit {MAX_COLS})"
        )));
    }
    let mut dtypes = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        dtypes.push(dtype_from_tag(r.u8()?)?);
    }
    let nblocks = r.u32()? as usize;
    if nblocks != rows.div_ceil(BLOCK_ROWS) {
        return Err(HyError::Storage(format!(
            "segment declares {nblocks} blocks for {rows} rows (want {})",
            rows.div_ceil(BLOCK_ROWS)
        )));
    }
    let mut blocks = Vec::with_capacity(ncols);
    for (c, dtype) in dtypes.iter().enumerate() {
        let mut col_blocks = Vec::with_capacity(nblocks);
        for b in 0..nblocks {
            let offset = r.u64()?;
            let len = r.u32()?;
            let brows = r.u32()?;
            let enc = r.u8()?;
            let null_count = r.u32()?;
            let min = read_zone_value(&mut r)?;
            let max = read_zone_value(&mut r)?;
            let expect_rows = (rows - b * BLOCK_ROWS).min(BLOCK_ROWS);
            if brows as usize != expect_rows {
                return Err(HyError::Storage(format!(
                    "segment block ({c},{b}) declares {brows} rows, want {expect_rows}"
                )));
            }
            // Reject forged offsets/lengths against the real file size
            // before any block read allocates.
            if len < 5
                || offset
                    .checked_add(len as u64)
                    .map(|end| end > file_len)
                    .unwrap_or(true)
            {
                return Err(HyError::Storage(format!(
                    "segment block ({c},{b}) at [{offset}, +{len}) exceeds file of {file_len} bytes"
                )));
            }
            let enc_ok = match dtype {
                DataType::Int64 => {
                    matches!(enc, encoding::PLAIN | encoding::RLE_INT | encoding::FOR_INT)
                }
                DataType::Varchar => matches!(enc, encoding::PLAIN | encoding::DICT_STR),
                _ => enc == encoding::PLAIN,
            };
            if !enc_ok {
                return Err(HyError::Storage(format!(
                    "segment block ({c},{b}) has encoding {enc} invalid for {dtype}"
                )));
            }
            if null_count > brows {
                return Err(HyError::Storage(format!(
                    "segment block ({c},{b}) declares {null_count} NULLs in {brows} rows"
                )));
            }
            col_blocks.push(BlockMeta {
                offset,
                len,
                rows: brows,
                encoding: enc,
                null_count,
                min,
                max,
            });
        }
        blocks.push(col_blocks);
    }
    if !r.is_empty() {
        return Err(HyError::Storage("segment header has trailing bytes".into()));
    }
    Ok(SegmentMeta {
        id,
        rows,
        raw_bytes,
        dtypes,
        blocks,
        file_len,
    })
}

/// Validate a whole segment file held in memory (bootstrap install path)
/// and return its meta.
pub fn validate_segment_bytes(bytes: &[u8]) -> Result<SegmentMeta> {
    if bytes.len() < 16 {
        return Err(HyError::Storage(format!(
            "segment file is {} bytes — too short to be valid",
            bytes.len()
        )));
    }
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if header_len > MAX_HEADER_BYTES || 16 + header_len as usize > bytes.len() {
        return Err(HyError::Storage(format!(
            "segment declares a {header_len}-byte header in a {}-byte file",
            bytes.len()
        )));
    }
    decode_segment_meta(
        &bytes[..16],
        &bytes[16..16 + header_len as usize],
        bytes.len() as u64,
    )
}

/// Copy an encoded segment file into `seg_dir` as segment `id`: validate
/// the bytes, require them to declare `id`, write them durably. The one
/// copy step backup, restore and replica bootstrap share; the caller
/// syncs `seg_dir` once its batch is written.
pub fn copy_segment_bytes(vfs: &dyn Vfs, seg_dir: &Path, id: u64, bytes: &[u8]) -> Result<()> {
    check_segment_bytes(id, bytes)?;
    write_durable(vfs, &seg_dir.join(segment_file_name(id)), bytes)
}

/// Validate an encoded segment file and require it to declare `id`.
pub fn check_segment_bytes(id: u64, bytes: &[u8]) -> Result<()> {
    let declared = validate_segment_bytes(bytes)?.id;
    if declared != id {
        return Err(HyError::Storage(format!(
            "segment file for id {id} declares id {declared} — corrupted"
        )));
    }
    Ok(())
}

/// Re-stamp an encoded segment file with a new id (bootstrap install
/// writes shipped segments under locally allocated ids so they can never
/// collide with the replica's own files). Validates the bytes first,
/// then patches the header's id field and recomputes the header CRC.
pub fn rebrand_segment_bytes(bytes: &mut [u8], new_id: u64) -> Result<u64> {
    let meta = validate_segment_bytes(bytes)?;
    let old_id = meta.id;
    let header_len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    bytes[16..24].copy_from_slice(&new_id.to_le_bytes());
    let crc = crc32(&bytes[16..16 + header_len]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    Ok(old_id)
}

/// Decode one block body (payload + trailing CRC) back to a column.
pub fn decode_block(dtype: DataType, meta: &BlockMeta, body: &[u8]) -> Result<ColumnVector> {
    if body.len() != meta.len as usize || body.len() < 5 {
        return Err(HyError::Storage(format!(
            "segment block body is {} bytes, directory declares {}",
            body.len(),
            meta.len
        )));
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(payload) != stored {
        return Err(HyError::Storage(
            "segment block failed its CRC check (corrupted)".into(),
        ));
    }
    let rows = meta.rows as usize;
    let mut r = ByteReader::new(payload);
    let validity = match r.u8()? {
        0 => None,
        1 => Some(
            read_bitmap_bits(&mut r, rows)?
                .into_iter()
                .collect::<Bitmap>(),
        ),
        other => {
            return Err(HyError::Storage(format!(
                "segment block has invalid validity flag {other}"
            )))
        }
    };
    let col = match (dtype, meta.encoding) {
        (DataType::Int64, encoding::PLAIN) => {
            let n = rows
                .checked_mul(8)
                .ok_or_else(|| HyError::Storage("segment block row count overflows".into()))?;
            let raw = r.take(n)?;
            let data = raw
                .chunks_exact(8)
                .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            ColumnVector::Int64 { data, validity }
        }
        (DataType::Int64, encoding::RLE_INT) => {
            let nruns = r.u32()? as usize;
            if nruns > r.remaining() / 12 + 1 {
                return Err(HyError::Storage(format!(
                    "segment RLE block declares {nruns} runs in {} bytes",
                    r.remaining()
                )));
            }
            let mut data = Vec::with_capacity(rows);
            for _ in 0..nruns {
                let value = r.u64()? as i64;
                let count = r.u32()? as usize;
                if data
                    .len()
                    .checked_add(count)
                    .map(|t| t > rows)
                    .unwrap_or(true)
                {
                    return Err(HyError::Storage(
                        "segment RLE block runs exceed the declared row count".into(),
                    ));
                }
                data.resize(data.len() + count, value);
            }
            if data.len() != rows {
                return Err(HyError::Storage(format!(
                    "segment RLE block decodes {} rows, directory declares {rows}",
                    data.len()
                )));
            }
            ColumnVector::Int64 { data, validity }
        }
        (DataType::Int64, encoding::FOR_INT) => {
            let base = r.u64()? as i64;
            let width = r.u8()? as u32;
            if width > 57 {
                return Err(HyError::Storage(format!(
                    "segment FOR block has invalid bit width {width}"
                )));
            }
            let packed = r.take(r.remaining())?;
            let deltas = unpack_bits(packed, rows, width)?;
            let data = deltas
                .into_iter()
                .map(|d| base.wrapping_add(d as i64))
                .collect();
            ColumnVector::Int64 { data, validity }
        }
        (DataType::Float64, encoding::PLAIN) => {
            let n = rows
                .checked_mul(8)
                .ok_or_else(|| HyError::Storage("segment block row count overflows".into()))?;
            let raw = r.take(n)?;
            let data = raw
                .chunks_exact(8)
                .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().unwrap())))
                .collect();
            ColumnVector::Float64 { data, validity }
        }
        (DataType::Bool, encoding::PLAIN) => ColumnVector::Bool {
            data: read_bitmap_bits(&mut r, rows)?,
            validity,
        },
        (DataType::Varchar, encoding::PLAIN) => {
            let mut data = Vec::with_capacity(rows.min(r.remaining() / 4));
            for _ in 0..rows {
                data.push(r.str()?);
            }
            ColumnVector::Varchar { data, validity }
        }
        (DataType::Varchar, encoding::DICT_STR) => {
            let dict_len = r.u32()? as usize;
            if dict_len > rows || dict_len > r.remaining() / 4 + 1 {
                return Err(HyError::Storage(format!(
                    "segment dictionary block declares {dict_len} entries for {rows} rows"
                )));
            }
            let mut dict = Vec::with_capacity(dict_len);
            for _ in 0..dict_len {
                dict.push(r.str()?);
            }
            let width = r.u8()? as u32;
            if width > 32 {
                return Err(HyError::Storage(format!(
                    "segment dictionary block has invalid index width {width}"
                )));
            }
            let packed = r.take(r.remaining())?;
            let indexes = unpack_bits(packed, rows, width)?;
            let mut data = Vec::with_capacity(rows);
            for idx in indexes {
                let idx = idx as usize;
                if idx >= dict_len.max(1) || (dict_len == 0 && rows > 0) {
                    return Err(HyError::Storage(format!(
                        "segment dictionary index {idx} out of range (dictionary has {dict_len} entries)"
                    )));
                }
                data.push(dict[idx].clone());
            }
            ColumnVector::Varchar { data, validity }
        }
        (dt, enc) => {
            return Err(HyError::Storage(format!(
                "segment block encoding {enc} invalid for {dt}"
            )))
        }
    };
    if let Some(bm) = col.validity() {
        if bm.len() != rows {
            return Err(HyError::Storage(
                "segment block validity bitmap length mismatch".into(),
            ));
        }
    }
    if col.len() != rows {
        return Err(HyError::Storage(format!(
            "segment block decodes {} rows, directory declares {rows}",
            col.len()
        )));
    }
    Ok(col)
}

// ---------------------------------------------------------------------------
// Disk-backed segments
// ---------------------------------------------------------------------------

/// An open disk-backed segment: header in memory, blocks read on demand
/// through the [`BufferPool`].
pub struct DiskSegment {
    meta: SegmentMeta,
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    pool: Arc<BufferPool>,
}

impl std::fmt::Debug for DiskSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskSegment")
            .field("id", &self.meta.id)
            .field("rows", &self.meta.rows)
            .field("file_len", &self.meta.file_len)
            .finish()
    }
}

impl DiskSegment {
    /// Segment id.
    pub fn id(&self) -> u64 {
        self.meta.id
    }

    /// Rows in the segment.
    pub fn rows(&self) -> usize {
        self.meta.rows
    }

    /// The decoded header.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// Fetch one column block through the pool.
    pub fn block(&self, col: usize, blk: usize) -> Result<Arc<ColumnVector>> {
        let bm = &self.meta.blocks[col][blk];
        let key = (self.meta.id, col as u32, blk as u32);
        let meta = bm.clone();
        let dtype = self.meta.dtypes[col];
        self.pool.get_or_load(key, || {
            let body = self
                .vfs
                .read_range(&self.path, meta.offset, meta.len as u64)?;
            Ok(Arc::new(decode_block(dtype, &meta, &body)?))
        })
    }

    /// Materialize rows `[offset, offset+len)` of the given columns
    /// (`None` = all) as a chunk. Whole-block reads of a single block are
    /// zero-copy out of the pool.
    pub fn read_rows(&self, offset: usize, len: usize, cols: Option<&[usize]>) -> Result<Chunk> {
        if offset + len > self.meta.rows {
            return Err(HyError::Storage(format!(
                "segment {} read [{offset}, +{len}) out of range ({} rows)",
                self.meta.id, self.meta.rows
            )));
        }
        let all: Vec<usize>;
        let col_ids: &[usize] = match cols {
            Some(c) => c,
            None => {
                all = (0..self.meta.dtypes.len()).collect();
                &all
            }
        };
        if col_ids.is_empty() {
            return Ok(Chunk::zero_column(len));
        }
        let mut out: Vec<Arc<ColumnVector>> = Vec::with_capacity(col_ids.len());
        for &c in col_ids {
            if c >= self.meta.dtypes.len() {
                return Err(HyError::Storage(format!(
                    "segment {} has no column {c}",
                    self.meta.id
                )));
            }
            if len == 0 {
                out.push(Arc::new(ColumnVector::empty(self.meta.dtypes[c])));
                continue;
            }
            let first_blk = offset / BLOCK_ROWS;
            let last_blk = (offset + len - 1) / BLOCK_ROWS;
            if first_blk == last_blk {
                let block = self.block(c, first_blk)?;
                let in_blk = offset - first_blk * BLOCK_ROWS;
                if in_blk == 0 && len == block.len() {
                    out.push(block); // whole block, zero-copy
                } else {
                    out.push(Arc::new(block.slice(in_blk, len)));
                }
            } else {
                let first = self.block(c, first_blk)?;
                let in_blk = offset - first_blk * BLOCK_ROWS;
                let mut acc = first.slice(in_blk, first.len() - in_blk);
                for blk in first_blk + 1..=last_blk {
                    let block = self.block(c, blk)?;
                    let take = (offset + len - blk * BLOCK_ROWS).min(block.len());
                    if take == block.len() {
                        acc.append(&block)?;
                    } else {
                        acc.append(&block.slice(0, take))?;
                    }
                }
                out.push(Arc::new(acc));
            }
        }
        Ok(Chunk::from_arc_columns(out))
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Owns the `segments/` directory: id allocation, sealed-segment writes,
/// on-demand opens (with a live registry for GC safety), and orphan
/// collection.
pub struct SegmentStore {
    vfs: Arc<dyn Vfs>,
    seg_dir: PathBuf,
    pool: Arc<BufferPool>,
    next_id: AtomicU64,
    live: Mutex<HashMap<u64, Weak<DiskSegment>>>,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("seg_dir", &self.seg_dir)
            .field("next_id", &self.next_id.load(AtomicOrdering::Relaxed))
            .finish()
    }
}

impl SegmentStore {
    /// Open (creating if needed) the segment directory under `data_dir`.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        data_dir: &Path,
        pool: Arc<BufferPool>,
    ) -> Result<Arc<SegmentStore>> {
        let seg_dir = data_dir.join(SEGMENT_DIR);
        vfs.create_dir_all(&seg_dir)?;
        let store = Arc::new(SegmentStore {
            vfs,
            seg_dir,
            pool,
            next_id: AtomicU64::new(1),
            live: Mutex::new(HashMap::new()),
        });
        store.refresh_next_id()?;
        Ok(store)
    }

    /// Advance the id allocator past every file currently on disk.
    pub fn refresh_next_id(&self) -> Result<()> {
        let mut max = 0u64;
        for name in self.vfs.list_dir(&self.seg_dir)? {
            if let Some(id) = parse_segment_file_name(&name) {
                max = max.max(id);
            }
        }
        let next = max + 1;
        self.next_id.fetch_max(next, AtomicOrdering::SeqCst);
        Ok(())
    }

    /// Allocate a fresh, never-reused segment id.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, AtomicOrdering::SeqCst)
    }

    /// Path of segment `id`'s file.
    pub fn path_for(&self, id: u64) -> PathBuf {
        self.seg_dir.join(segment_file_name(id))
    }

    /// The segment directory.
    pub fn dir(&self) -> &Path {
        &self.seg_dir
    }

    /// The shared block cache.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Encode and durably write a sealed chunk as segment `id`. Returns
    /// the encoded size in bytes. The caller syncs the directory once all
    /// of a checkpoint's segments are written.
    pub fn write_segment(&self, id: u64, chunk: &Chunk) -> Result<u64> {
        let bytes = encode_segment(id, chunk)?;
        write_durable(self.vfs.as_ref(), &self.path_for(id), &bytes)?;
        Ok(bytes.len() as u64)
    }

    /// Make the segment directory's entries durable (after a batch of
    /// [`SegmentStore::write_segment`] calls, before the manifest rename).
    pub fn sync_dir(&self) -> Result<()> {
        self.vfs.sync_dir(&self.seg_dir)
    }

    /// Read a segment file verbatim (bootstrap shipping).
    pub fn read_file(&self, id: u64) -> Result<Vec<u8>> {
        self.vfs.read(&self.path_for(id))
    }

    /// Open segment `id`, reading only its header. Re-opens share the
    /// same `Arc` through a live registry (which also protects open
    /// segments from GC).
    pub fn open_segment(self: &Arc<Self>, id: u64) -> Result<Arc<DiskSegment>> {
        if let Some(seg) = self.live.lock().unwrap().get(&id).and_then(Weak::upgrade) {
            return Ok(seg);
        }
        let path = self.path_for(id);
        let file_len = self.vfs.len(&path)?;
        if file_len < 16 {
            return Err(HyError::Storage(format!(
                "segment file {} is {file_len} bytes — too short to be valid",
                path.display()
            )));
        }
        let prelude = self.vfs.read_range(&path, 0, 16)?;
        let header_len = u32::from_le_bytes(prelude[8..12].try_into().unwrap());
        if header_len > MAX_HEADER_BYTES || 16 + header_len as u64 > file_len {
            return Err(HyError::Storage(format!(
                "segment file {} declares a {header_len}-byte header in {file_len} bytes",
                path.display()
            )));
        }
        let header = self.vfs.read_range(&path, 16, header_len as u64)?;
        let meta = decode_segment_meta(&prelude, &header, file_len)?;
        if meta.id != id {
            return Err(HyError::Storage(format!(
                "segment file {} carries id {} (file name says {id})",
                path.display(),
                meta.id
            )));
        }
        let seg = Arc::new(DiskSegment {
            meta,
            path,
            vfs: Arc::clone(&self.vfs),
            pool: Arc::clone(&self.pool),
        });
        self.live.lock().unwrap().insert(id, Arc::downgrade(&seg));
        Ok(seg)
    }

    /// Delete segment files that are neither in `referenced` nor held
    /// open by a live snapshot. Returns the removed ids.
    pub fn gc(&self, referenced: &HashSet<u64>) -> Result<Vec<u64>> {
        let mut removed = Vec::new();
        for name in self.vfs.list_dir(&self.seg_dir)? {
            let Some(id) = parse_segment_file_name(&name) else {
                continue;
            };
            if referenced.contains(&id) {
                continue;
            }
            {
                let mut live = self.live.lock().unwrap();
                match live.get(&id) {
                    Some(w) if w.upgrade().is_some() => continue,
                    Some(_) => {
                        live.remove(&id);
                    }
                    None => {}
                }
            }
            self.vfs.remove(&self.seg_dir.join(&name))?;
            self.pool.evict_segment(id);
            removed.push(id);
        }
        Ok(removed)
    }

    /// Total bytes of all segment files on disk (storage view).
    pub fn disk_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for name in self.vfs.list_dir(&self.seg_dir)? {
            if parse_segment_file_name(&name).is_some() {
                total += self.vfs.len(&self.seg_dir.join(&name))?;
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hylite_common::telemetry::MetricsRegistry;
    use hylite_common::FaultVfs;

    fn chunk_all_types(rows: usize) -> Chunk {
        let ints: Vec<i64> = (0..rows as i64).map(|i| i / 7).collect();
        let floats: Vec<f64> = (0..rows).map(|i| i as f64 * 0.5).collect();
        let bools: Vec<bool> = (0..rows).map(|i| i % 3 == 0).collect();
        let mut strs = ColumnVector::empty(DataType::Varchar);
        for i in 0..rows {
            if i % 11 == 0 {
                strs.push_null();
            } else {
                strs.push_value(&Value::from(format!("cat_{}", i % 5)))
                    .unwrap();
            }
        }
        Chunk::new(vec![
            ColumnVector::from_i64(ints),
            ColumnVector::from_f64(floats),
            ColumnVector::from_bool(bools),
            strs,
        ])
    }

    fn store() -> (FaultVfs, Arc<SegmentStore>) {
        let vfs = FaultVfs::new();
        let pool = Arc::new(BufferPool::new(1 << 24, &MetricsRegistry::new()));
        let store = SegmentStore::open(Arc::new(vfs.clone()), Path::new("data"), pool).unwrap();
        (vfs, store)
    }

    fn roundtrip(chunk: &Chunk) -> Chunk {
        let (_vfs, store) = store();
        let id = store.alloc_id();
        store.write_segment(id, chunk).unwrap();
        let seg = store.open_segment(id).unwrap();
        seg.read_rows(0, chunk.len(), None).unwrap()
    }

    fn assert_chunks_equal(a: &Chunk, b: &Chunk) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.num_columns(), b.num_columns());
        for c in 0..a.num_columns() {
            for i in 0..a.len() {
                assert_eq!(
                    a.column(c).value(i),
                    b.column(c).value(i),
                    "column {c} row {i}"
                );
                assert_eq!(a.column(c).is_valid(i), b.column(c).is_valid(i));
            }
        }
    }

    #[test]
    fn all_types_roundtrip_across_blocks() {
        let chunk = chunk_all_types(BLOCK_ROWS + 123);
        let back = roundtrip(&chunk);
        assert_chunks_equal(&chunk, &back);
    }

    #[test]
    fn small_segment_roundtrips() {
        let chunk = chunk_all_types(10);
        assert_chunks_equal(&chunk, &roundtrip(&chunk));
    }

    #[test]
    fn compression_kicks_in_for_runny_data() {
        // Two long plateaus of wide-range values (RLE beats FOR there)
        // and a low-cardinality string column should compress far below
        // raw size.
        let rows = BLOCK_ROWS;
        let chunk = Chunk::new(vec![
            ColumnVector::from_i64(
                (0..rows)
                    .map(|i| if i < rows / 2 { 42 } else { 1 << 40 })
                    .collect(),
            ),
            ColumnVector::from_str((0..rows).map(|i| format!("s{}", i % 4)).collect::<Vec<_>>()),
        ]);
        let bytes = encode_segment(7, &chunk).unwrap();
        let raw = chunk.heap_bytes();
        assert!(
            bytes.len() * 4 < raw,
            "encoded {} bytes vs raw {raw}",
            bytes.len()
        );
        let meta = validate_segment_bytes(&bytes).unwrap();
        assert_eq!(meta.blocks[0][0].encoding, encoding::RLE_INT);
        assert_eq!(meta.blocks[1][0].encoding, encoding::DICT_STR);
    }

    #[test]
    fn for_encoding_picked_for_dense_ranges() {
        let rows = BLOCK_ROWS;
        let chunk = Chunk::new(vec![ColumnVector::from_i64(
            (0..rows as i64).map(|i| 1_000_000 + i).collect(),
        )]);
        let bytes = encode_segment(1, &chunk).unwrap();
        let meta = validate_segment_bytes(&bytes).unwrap();
        assert_eq!(meta.blocks[0][0].encoding, encoding::FOR_INT);
        assert!(bytes.len() < rows * 8 / 2);
        // And it still round-trips exactly.
        let decoded = roundtrip(&chunk);
        assert_eq!(
            decoded.column(0).as_i64().unwrap(),
            chunk.column(0).as_i64().unwrap()
        );
    }

    #[test]
    fn extreme_ints_fall_back_to_plain_and_roundtrip() {
        let chunk = Chunk::new(vec![ColumnVector::from_i64(vec![
            i64::MIN,
            i64::MAX,
            0,
            -1,
            1,
        ])]);
        assert_chunks_equal(&chunk, &roundtrip(&chunk));
    }

    #[test]
    fn zone_maps_cover_min_max_and_nulls() {
        let mut col = ColumnVector::empty(DataType::Int64);
        for v in [Value::Int(5), Value::Null, Value::Int(-3), Value::Int(12)] {
            col.push_value(&v).unwrap();
        }
        let bytes = encode_segment(1, &Chunk::new(vec![col])).unwrap();
        let meta = validate_segment_bytes(&bytes).unwrap();
        let bm = &meta.blocks[0][0];
        assert_eq!(bm.null_count, 1);
        assert_eq!(bm.min, Some(Value::Int(-3)));
        assert_eq!(bm.max, Some(Value::Int(12)));
        // Pruning: a predicate outside [-3, 12] can skip the block.
        let out_of_range = ZoneRange {
            col: 0,
            lower: Some((Value::Int(100), true)),
            upper: None,
        };
        assert!(!bm.may_match(&out_of_range));
        let inside = ZoneRange {
            col: 0,
            lower: Some((Value::Int(0), true)),
            upper: Some((Value::Int(6), true)),
        };
        assert!(bm.may_match(&inside));
        // Exclusive boundary at the max prunes.
        let at_max_exclusive = ZoneRange {
            col: 0,
            lower: Some((Value::Int(12), false)),
            upper: None,
        };
        assert!(!bm.may_match(&at_max_exclusive));
    }

    #[test]
    fn all_null_blocks_prune_everything() {
        let mut col = ColumnVector::empty(DataType::Int64);
        col.push_null();
        col.push_null();
        let bytes = encode_segment(1, &Chunk::new(vec![col])).unwrap();
        let meta = validate_segment_bytes(&bytes).unwrap();
        let any = ZoneRange {
            col: 0,
            lower: None,
            upper: Some((Value::Int(1_000_000), true)),
        };
        assert!(!meta.blocks[0][0].may_match(&any));
    }

    #[test]
    fn nan_blocks_keep_no_zone_map() {
        let chunk = Chunk::new(vec![ColumnVector::from_f64(vec![1.0, f64::NAN, 3.0])]);
        let bytes = encode_segment(1, &chunk).unwrap();
        let meta = validate_segment_bytes(&bytes).unwrap();
        assert!(meta.blocks[0][0].min.is_none());
        let r = ZoneRange {
            col: 0,
            lower: Some((Value::Float(100.0), true)),
            upper: None,
        };
        assert!(meta.blocks[0][0].may_match(&r), "no zone map = keep");
        // NaN itself round-trips bit-exactly.
        let back = roundtrip(&chunk);
        assert!(back.column(0).as_f64().unwrap()[1].is_nan());
    }

    #[test]
    fn projected_and_partial_reads() {
        let chunk = chunk_all_types(BLOCK_ROWS * 2 + 100);
        let (_vfs, store) = store();
        let id = store.alloc_id();
        store.write_segment(id, &chunk).unwrap();
        let seg = store.open_segment(id).unwrap();
        // A range straddling a block boundary, one projected column.
        let part = seg.read_rows(BLOCK_ROWS - 50, 100, Some(&[0])).unwrap();
        assert_eq!(part.num_columns(), 1);
        assert_eq!(part.len(), 100);
        for i in 0..100 {
            assert_eq!(
                part.column(0).value(i),
                chunk.column(0).value(BLOCK_ROWS - 50 + i)
            );
        }
        // Empty projection still carries the row count.
        let none = seg.read_rows(0, 10, Some(&[])).unwrap();
        assert_eq!((none.len(), none.num_columns()), (10, 0));
        // Out-of-range read errors.
        assert!(seg.read_rows(chunk.len(), 1, None).is_err());
    }

    #[test]
    fn gc_spares_referenced_and_live_segments() {
        let (vfs, store) = store();
        let c = chunk_all_types(10);
        let (a, b, c_id) = (store.alloc_id(), store.alloc_id(), store.alloc_id());
        store.write_segment(a, &c).unwrap();
        store.write_segment(b, &c).unwrap();
        store.write_segment(c_id, &c).unwrap();
        let held = store.open_segment(b).unwrap(); // live reference
        let referenced: HashSet<u64> = [a].into_iter().collect();
        let removed = store.gc(&referenced).unwrap();
        assert_eq!(removed, vec![c_id]);
        assert!(vfs.exists(&store.path_for(a)));
        assert!(vfs.exists(&store.path_for(b)));
        assert!(!vfs.exists(&store.path_for(c_id)));
        drop(held);
        let removed = store.gc(&referenced).unwrap();
        assert_eq!(removed, vec![b]);
    }

    #[test]
    fn next_id_resumes_past_existing_files() {
        let (_vfs, store) = store();
        let id = store.alloc_id();
        store.write_segment(id, &chunk_all_types(5)).unwrap();
        store.refresh_next_id().unwrap();
        assert!(store.alloc_id() > id);
    }

    #[test]
    fn mismatched_file_name_id_is_rejected() {
        let (vfs, store) = store();
        let bytes = encode_segment(99, &chunk_all_types(5)).unwrap();
        let mut f = vfs.create(&store.path_for(3)).unwrap();
        f.write_all(&bytes).unwrap();
        f.sync().unwrap();
        assert!(store.open_segment(3).is_err());
    }
}
