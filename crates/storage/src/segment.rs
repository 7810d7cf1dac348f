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
//!     Header: [u64 segment_id] [u64 rows] [u64 raw_bytes]
//!             [u32 ncols] [u8 dtype ...ncols] [u32 nblocks]
//!     directory, ncols * nblocks BlockMeta entries in column-major order:
//!         [u64 offset] [u32 len] [u32 rows] [u8 encoding]
//!         [u32 null_count] [zone min] [zone max]
//! blocks, at their directory offsets:
//!     [payload] [u32 crc32(payload)]
//! ```
//!
//! `Header` and [`BlockMeta`] are `records!` declarations, written and
//! read by the shared field codecs; `Zone` is the zone value's codec: a
//! 1-byte tag (`0` absent, `1` i64, `2` f64, `3` bool, `4` string)
//! followed by the value. Zone maps are absent when a block is all-NULL,
//! contains NaN floats, or holds strings longer than [`MAX_ZONE_STR`]
//! bytes (a truncated string max would prune wrongly).
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

use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Weak};

use hylite_common::codec::{
    dtype_tag, put_bits, put_str, put_u32, put_u64, At, ByteReader, Codec, List,
};
use hylite_common::faultfs::Vfs;
use hylite_common::{
    crc32, records, Bitmap, Chunk, ColumnVector, DataType, HyError, Result, Value,
};
use parking_lot::Mutex;

use crate::files::{write_durable, Signature};
use crate::pool::{BlockBytes, BufferPool};

/// A segment file's signature, opening its prelude.
const SEGMENT: Signature = Signature::new(b"HYSG", 1, "segment");
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

/// A conjunct of a scan's filter: `lower <= col <= upper` with per-bound
/// inclusivity. The executor extracts these from AND-trees of comparison
/// predicates; columns are indexed in *table* (snapshot) space. Zone maps
/// prune whole blocks with them; on the blocks that remain storage
/// evaluates them row by row on the encoded data — when the literals have
/// the column's own type, so that the comparison is the executor's, bit
/// for bit. A BIGINT literal on a DOUBLE column (or the reverse), a NaN
/// literal, or a BOOLEAN column selects every row instead, and the
/// executor's filter decides.
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

records! {
    /// Zone map + location of one encoded block: its entry in the header's
    /// block directory.
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
        pub min: Option<Value> as Zone,
        /// Maximum non-NULL value, if a zone map was recorded.
        pub max: Option<Value> as Zone,
    }
}

/// A zone value: a tag (`0` absent, `1` BIGINT, `2` DOUBLE, `3` BOOLEAN,
/// `4` VARCHAR), then the value.
pub(crate) struct Zone;

impl Codec<Option<Value>> for Zone {
    fn put(v: &Option<Value>, buf: &mut Vec<u8>) {
        match v {
            None | Some(Value::Null) => buf.push(0),
            Some(Value::Int(x)) => {
                buf.push(1);
                u64::put(&(*x as u64), buf);
            }
            Some(Value::Float(x)) => {
                buf.push(2);
                u64::put(&x.to_bits(), buf);
            }
            Some(Value::Bool(x)) => {
                buf.push(3);
                bool::put(x, buf);
            }
            Some(Value::Str(s)) => {
                buf.push(4);
                String::put(s, buf);
            }
        }
    }
    fn get(r: &mut ByteReader<'_>, at: At) -> Result<Option<Value>> {
        Ok(Some(match r.u8()? {
            0 => return Ok(None),
            1 => Value::Int(r.u64()? as i64),
            2 => Value::Float(f64::from_bits(r.u64()?)),
            3 => Value::Bool(bool::get(r, at)?),
            4 => Value::Str(r.str()?),
            other => {
                return Err(HyError::Storage(format!(
                    "segment: unknown zone value tag {other}"
                )))
            }
        }))
    }
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

/// `rows` values of `width` bits each as packed by [`pack_bits`], read in
/// place: one unaligned 8-byte load, a shift and a mask per value.
#[derive(Clone, Copy)]
struct Packed<'a> {
    bytes: &'a [u8],
    width: u32,
}

impl<'a> Packed<'a> {
    /// Widths above 57 do not fit one load at every bit offset (and the
    /// encoder never writes them); `bytes` must hold all `rows` values.
    fn new(bytes: &'a [u8], rows: usize, width: u32) -> Result<Packed<'a>> {
        if width > 57 {
            return Err(HyError::Storage(format!(
                "segment block has invalid bit width {width}"
            )));
        }
        let need = (rows as u64 * width as u64).div_ceil(8) as usize;
        if bytes.len() < need {
            return Err(HyError::Storage(format!(
                "segment block truncated: {need} packed bytes expected, {} present",
                bytes.len()
            )));
        }
        Ok(Packed { bytes, width })
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        let bit = i * self.width as usize;
        let (byte, shift) = (bit / 8, bit % 8);
        let word = match self.bytes.get(byte..byte + 8) {
            Some(w) => u64::from_le_bytes(w.try_into().unwrap()),
            None => {
                // The last values of a block: fewer than 8 bytes remain.
                let rest = &self.bytes[byte.min(self.bytes.len())..];
                let mut w = [0u8; 8];
                w[..rest.len()].copy_from_slice(rest);
                u64::from_le_bytes(w)
            }
        };
        (word >> shift) & ((1u64 << self.width) - 1)
    }
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

/// Encode one block: its body and its directory entry (`offset` still 0).
fn encode_block(col: &ColumnVector) -> (Vec<u8>, BlockMeta) {
    let rows = col.len();
    let null_count = col.null_count() as u32;
    let (min, max) = compute_zone(col);
    let mut payload = Vec::with_capacity(rows * 8 + rows / 8 + 16);
    match col.validity() {
        Some(bm) if !bm.all_set() => {
            payload.push(1);
            put_bits(&mut payload, rows, |i| bm.get(i));
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
            put_bits(&mut payload, rows, |i| data[i]);
            encoding::PLAIN
        }
        ColumnVector::Varchar { data, .. } => encode_str_data(data, &mut payload),
    };
    let crc = crc32(&payload);
    put_u32(&mut payload, crc);
    let meta = BlockMeta {
        offset: 0,
        len: payload.len() as u32,
        rows: rows as u32,
        encoding: enc,
        null_count,
        min,
        max,
    };
    (payload, meta)
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
        put_u32(payload, runs as u32);
        let mut iter = data.iter();
        if let Some(&first) = iter.next() {
            let mut value = first;
            let mut count: u32 = 1;
            for &v in iter {
                if v == value {
                    count += 1;
                } else {
                    put_u64(payload, value as u64);
                    put_u32(payload, count);
                    value = v;
                    count = 1;
                }
            }
            put_u64(payload, value as u64);
            put_u32(payload, count);
        }
        encoding::RLE_INT
    } else if for_size < plain_size {
        put_u64(payload, phys_min as u64);
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
        put_u32(payload, dict.len() as u32);
        for s in dict.keys() {
            put_str(payload, s);
        }
        payload.push(width as u8);
        pack_bits(data.iter().map(|s| dict[s.as_str()] as u64), width, payload);
        encoding::DICT_STR
    } else {
        for s in data {
            put_str(payload, s);
        }
        encoding::PLAIN
    }
}

records! {
    /// The fixed part of a segment header; the block directory, `ncols *
    /// nblocks` [`BlockMeta`] entries in column-major order, follows it.
    pub(crate) struct Header {
        id: u64,
        rows: u64,
        raw_bytes: u64,
        dtypes: Vec<DataType> as List<u32>,
        nblocks: u32,
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
    let mut bodies = Vec::with_capacity(ncols * rows.div_ceil(BLOCK_ROWS));
    let mut meta = SegmentMeta {
        id,
        rows,
        raw_bytes: chunk.heap_bytes() as u64,
        dtypes: chunk.columns().iter().map(|c| c.data_type()).collect(),
        blocks: Vec::with_capacity(ncols),
        file_len: 0,
    };
    for col in chunk.columns() {
        let col_blocks = (0..rows).step_by(BLOCK_ROWS).map(|start| {
            let (body, block) = encode_block(&col.slice(start, (rows - start).min(BLOCK_ROWS)));
            bodies.push(body);
            block
        });
        meta.blocks.push(col_blocks.collect());
    }
    // Offsets do not change an entry's size: the header's length is known
    // before the offsets are.
    let mut offset = encode_segment_header(&meta).len() as u64;
    for block in meta.blocks.iter_mut().flatten() {
        block.offset = offset;
        offset += u64::from(block.len);
    }
    let mut out = encode_segment_header(&meta);
    out.reserve(bodies.iter().map(Vec::len).sum());
    for body in &bodies {
        out.extend_from_slice(body);
    }
    Ok(out)
}

/// The prelude and the header of the segment `meta` describes:
/// everything before its first block.
pub fn encode_segment_header(meta: &SegmentMeta) -> Vec<u8> {
    let mut header = Vec::with_capacity(64 + meta.blocks.len() * meta.nblocks() * 40);
    let fixed = Header {
        id: meta.id,
        rows: meta.rows as u64,
        raw_bytes: meta.raw_bytes,
        dtypes: meta.dtypes.clone(),
        nblocks: meta.nblocks() as u32,
    };
    Header::put(&fixed, &mut header);
    for block in meta.blocks.iter().flatten() {
        BlockMeta::put(block, &mut header);
    }
    let mut out = Vec::with_capacity(16 + header.len());
    SEGMENT.put(&mut out);
    put_u32(&mut out, header.len() as u32);
    put_u32(&mut out, crc32(&header));
    out.extend_from_slice(&header);
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Check a segment's 16-byte prelude against the file's length and return
/// the header's length and CRC.
fn decode_prelude(prelude: &[u8], file_len: u64) -> Result<(usize, u32)> {
    let mut p = ByteReader::new(prelude);
    SEGMENT.check(&mut p)?;
    let (header_len, crc) = (p.u32()?, p.u32()?);
    if header_len > MAX_HEADER_BYTES || 16 + u64::from(header_len) > file_len {
        return Err(HyError::Storage(format!(
            "segment declares a {header_len}-byte header in a {file_len}-byte file"
        )));
    }
    Ok((header_len as usize, crc))
}

/// Parse and validate a segment header (the `header_len` bytes after the
/// prelude, which declared `crc`) of a file of `file_len` bytes.
fn decode_header(header: &[u8], crc: u32, file_len: u64) -> Result<SegmentMeta> {
    if crc32(header) != crc {
        return Err(HyError::Storage(
            "segment header failed its CRC check (corrupted)".into(),
        ));
    }
    let mut r = ByteReader::new(header);
    let Header {
        id,
        rows,
        raw_bytes,
        dtypes,
        nblocks,
    } = Header::get(&mut r, At("segment", "", "header"))?;
    let (rows, ncols, nblocks) = (rows as usize, dtypes.len(), nblocks as usize);
    if ncols == 0 || ncols > MAX_COLS {
        return Err(HyError::Storage(format!(
            "segment declares {ncols} columns (limit {MAX_COLS})"
        )));
    }
    // NULL-typed columns have a wire tag but are never sealed.
    if dtypes.contains(&DataType::Null) {
        return Err(HyError::Storage(format!(
            "segment: unknown column type tag {}",
            dtype_tag(DataType::Null)
        )));
    }
    if nblocks != rows.div_ceil(BLOCK_ROWS) {
        return Err(HyError::Storage(format!(
            "segment declares {nblocks} blocks for {rows} rows (want {})",
            rows.div_ceil(BLOCK_ROWS)
        )));
    }
    let entries = ncols.saturating_mul(nblocks);
    let directory: Vec<BlockMeta> = r.items(entries, At("segment", "", "directory"))?;
    if !r.is_empty() {
        return Err(HyError::Storage("segment header has trailing bytes".into()));
    }
    // The decoded directory holds ncols * nblocks entries: this allocates no
    // more than the input held.
    let mut blocks: Vec<Vec<BlockMeta>> = (0..ncols).map(|_| Vec::with_capacity(nblocks)).collect();
    for (i, block) in directory.into_iter().enumerate() {
        let (c, b) = (i / nblocks, i % nblocks);
        let &BlockMeta {
            offset,
            len,
            rows: brows,
            encoding: enc,
            null_count,
            ..
        } = &block;
        let expect_rows = (rows - b * BLOCK_ROWS).min(BLOCK_ROWS);
        if brows as usize != expect_rows {
            return Err(HyError::Storage(format!(
                "segment block ({c},{b}) declares {brows} rows, want {expect_rows}"
            )));
        }
        // Reject forged offsets/lengths against the real file size before
        // any block read allocates.
        if len < 5
            || offset
                .checked_add(u64::from(len))
                .is_none_or(|end| end > file_len)
        {
            return Err(HyError::Storage(format!(
                "segment block ({c},{b}) at [{offset}, +{len}) exceeds file of {file_len} bytes"
            )));
        }
        let enc_ok = match dtypes[c] {
            DataType::Int64 => {
                matches!(enc, encoding::PLAIN | encoding::RLE_INT | encoding::FOR_INT)
            }
            DataType::Varchar => matches!(enc, encoding::PLAIN | encoding::DICT_STR),
            _ => enc == encoding::PLAIN,
        };
        if !enc_ok {
            return Err(HyError::Storage(format!(
                "segment block ({c},{b}) has encoding {enc} invalid for {}",
                dtypes[c]
            )));
        }
        if null_count > brows {
            return Err(HyError::Storage(format!(
                "segment block ({c},{b}) declares {null_count} NULLs in {brows} rows"
            )));
        }
        blocks[c].push(block);
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
    let (header_len, crc) = decode_prelude(&bytes[..16], bytes.len() as u64)?;
    decode_header(&bytes[16..16 + header_len], crc, bytes.len() as u64)
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
    let mut meta = validate_segment_bytes(bytes)?;
    let old_id = std::mem::replace(&mut meta.id, new_id);
    let head = encode_segment_header(&meta);
    bytes[..head.len()].copy_from_slice(&head);
    Ok(old_id)
}

// ---------------------------------------------------------------------------
// Encoded blocks: verified once, selected from and decoded per access
// ---------------------------------------------------------------------------

/// Check a block body as read from the file — length against the
/// directory, payload against its trailing CRC — and return the payload,
/// which is what the buffer pool caches.
fn verify_block<'a>(meta: &BlockMeta, body: &'a [u8]) -> Result<&'a [u8]> {
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
    Ok(payload)
}

/// Rows of one block still in play, as positions within the block.
#[derive(Debug, Clone, PartialEq)]
enum Rows {
    /// A contiguous run (a block nothing has been removed from).
    Span(std::ops::Range<usize>),
    /// Ascending positions.
    Picked(Vec<u32>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Span(r) => r.len(),
            Rows::Picked(p) => p.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `get(position)` for every row, in order.
    fn gather<T>(&self, out: &mut impl Extend<T>, mut get: impl FnMut(usize) -> T) {
        match self {
            Rows::Span(r) => out.extend(r.clone().map(get)),
            Rows::Picked(p) => out.extend(p.iter().map(|&i| get(i as usize))),
        }
    }

    /// The rows `keep` holds for; a span that loses nothing stays a span.
    fn retain(self, mut keep: impl FnMut(usize) -> bool) -> Rows {
        match self {
            Rows::Span(r) => {
                // Branch-free: write every position, advance past the kept.
                let mut kept = vec![0u32; r.len()];
                let mut n = 0;
                for i in r.clone() {
                    kept[n] = i as u32;
                    n += usize::from(keep(i));
                }
                if n == r.len() {
                    Rows::Span(r)
                } else {
                    kept.truncate(n);
                    Rows::Picked(kept)
                }
            }
            Rows::Picked(mut p) => {
                p.retain(|&i| keep(i as usize));
                Rows::Picked(p)
            }
        }
    }
}

/// `lower <(=) v <(=) upper` with the comparison the executor's filter
/// uses for the type (`PartialOrd`: NaN is within nothing).
fn within<T: PartialOrd + Copy>(v: T, lower: Option<(T, bool)>, upper: Option<(T, bool)>) -> bool {
    lower.is_none_or(|(b, inclusive)| if inclusive { v >= b } else { v > b })
        && upper.is_none_or(|(b, inclusive)| if inclusive { v <= b } else { v < b })
}

/// A [`ZoneRange`] in the column's own type: the form in which storage
/// can evaluate it on an encoded block with exactly the executor's
/// comparison semantics.
#[derive(Debug, Clone, Copy)]
enum Bounds<'a> {
    /// `lo <= v <= hi`; wider than i64 so that `> i64::MAX` is an (empty)
    /// interval like any other.
    Int {
        lo: i128,
        hi: i128,
    },
    Float(Option<(f64, bool)>, Option<(f64, bool)>),
    /// Strings compare as their bytes.
    Str(Option<(&'a [u8], bool)>, Option<(&'a [u8], bool)>),
}

impl<'a> Bounds<'a> {
    /// `None` when storage must not evaluate the range: a literal of
    /// another type than the column (BIGINT against DOUBLE compares after a
    /// cast storage does not reproduce), a NaN or NULL literal, a BOOLEAN
    /// column. Such a range selects every row; the executor's filter
    /// decides.
    fn of(range: &'a ZoneRange, dtype: DataType) -> Option<Bounds<'a>> {
        fn typed<'v, T>(
            bound: &'v Option<(Value, bool)>,
            get: impl Fn(&'v Value) -> Option<T>,
        ) -> Option<Option<(T, bool)>> {
            match bound {
                None => Some(None),
                Some((v, inclusive)) => get(v).map(|t| Some((t, *inclusive))),
            }
        }
        let (lo, hi) = (&range.lower, &range.upper);
        match dtype {
            DataType::Int64 => {
                let get = |v: &Value| match v {
                    Value::Int(x) => Some(*x as i128),
                    _ => None,
                };
                let open = |inclusive: bool| i128::from(!inclusive);
                Some(Bounds::Int {
                    lo: typed(lo, get)?.map_or(i64::MIN as i128, |(v, inc)| v + open(inc)),
                    hi: typed(hi, get)?.map_or(i64::MAX as i128, |(v, inc)| v - open(inc)),
                })
            }
            DataType::Float64 => {
                let get = |v: &Value| match v {
                    Value::Float(x) if !x.is_nan() => Some(*x),
                    _ => None,
                };
                Some(Bounds::Float(typed(lo, get)?, typed(hi, get)?))
            }
            DataType::Varchar => {
                let get = |v: &'a Value| match v {
                    Value::Str(s) => Some(s.as_bytes()),
                    _ => None,
                };
                Some(Bounds::Str(typed(lo, get)?, typed(hi, get)?))
            }
            DataType::Bool | DataType::Null => None,
        }
    }
}

/// The encoding-specific part of a parsed block, borrowing the payload.
enum BlockData<'a> {
    /// 8 little-endian bytes per row (BIGINT).
    PlainInt(&'a [u8]),
    /// `(value, run length)`; the lengths sum to the block's rows.
    Rle(Vec<(i64, u32)>),
    /// `value = base + delta`.
    For { base: i64, deltas: Packed<'a> },
    /// 8 little-endian bytes per row (DOUBLE bits).
    PlainFloat(&'a [u8]),
    /// One bit per row.
    Bool(&'a [u8]),
    /// One byte string per row.
    PlainStr(Vec<&'a [u8]>),
    /// Strictly ascending dictionary and one code per row.
    Dict {
        dict: Vec<&'a str>,
        codes: Packed<'a>,
    },
}

/// A block payload split into NULL bitmap and typed data, every length and
/// count in it checked against the directory's row count.
struct Block<'a> {
    /// LSB-first bitmap, bit set = non-NULL; `None` = no NULLs.
    validity: Option<&'a [u8]>,
    data: BlockData<'a>,
}

fn bit(bits: &[u8], i: usize) -> bool {
    (bits[i / 8] >> (i % 8)) & 1 == 1
}

fn le_u64(raw: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(raw[i * 8..i * 8 + 8].try_into().unwrap())
}

/// Finds the run of an RLE block a row sits in, for rows asked about in
/// ascending order (the order selections and gathers go in).
struct RunCursor<'a> {
    runs: &'a [(i64, u32)],
    at: usize,
    /// First row past run `at`.
    end: usize,
}

impl<'a> RunCursor<'a> {
    fn new(runs: &'a [(i64, u32)]) -> RunCursor<'a> {
        let end = runs.first().map_or(0, |run| run.1 as usize);
        RunCursor { runs, at: 0, end }
    }

    /// Index of the run holding row `i` (below the block's row count).
    fn run_of(&mut self, i: usize) -> usize {
        while i >= self.end {
            self.at += 1;
            self.end += self.runs[self.at].1 as usize;
        }
        self.at
    }
}

/// Selection and decoding fail alike on a visited dictionary code past
/// the dictionary.
fn check_codes(past: bool) -> Result<()> {
    if past {
        return Err(HyError::Storage(
            "segment dictionary index out of range".into(),
        ));
    }
    Ok(())
}

impl<'a> Block<'a> {
    fn parse(dtype: DataType, meta: &BlockMeta, payload: &'a [u8]) -> Result<Block<'a>> {
        let rows = meta.rows as usize;
        let mut r = ByteReader::new(payload);
        let validity = match r.u8()? {
            0 => None,
            1 => Some(r.take(rows.div_ceil(8))?),
            other => {
                return Err(HyError::Storage(format!(
                    "segment block has invalid validity flag {other}"
                )))
            }
        };
        let fixed = |r: &mut ByteReader<'a>| -> Result<&'a [u8]> {
            let n = rows
                .checked_mul(8)
                .ok_or_else(|| HyError::Storage("segment block row count overflows".into()))?;
            r.take(n)
        };
        let data = match (dtype, meta.encoding) {
            (DataType::Int64, encoding::PLAIN) => BlockData::PlainInt(fixed(&mut r)?),
            (DataType::Int64, encoding::RLE_INT) => {
                let nruns = r.u32()? as usize;
                if nruns > r.remaining() / 12 + 1 {
                    return Err(HyError::Storage(format!(
                        "segment RLE block declares {nruns} runs in {} bytes",
                        r.remaining()
                    )));
                }
                let mut runs = Vec::with_capacity(nruns);
                let mut total = 0u64;
                for _ in 0..nruns {
                    let run = (r.u64()? as i64, r.u32()?);
                    total += run.1 as u64;
                    runs.push(run);
                }
                if total != rows as u64 {
                    return Err(HyError::Storage(format!(
                        "segment RLE block decodes {total} rows, directory declares {rows}"
                    )));
                }
                BlockData::Rle(runs)
            }
            (DataType::Int64, encoding::FOR_INT) => {
                let base = r.u64()? as i64;
                let width = r.u8()? as u32;
                let deltas = Packed::new(r.take(r.remaining())?, rows, width)?;
                // `base + delta` is a BIGINT: by the width for any block the
                // encoder writes short of i64::MAX, row by row for the rest.
                let limit = (i64::MAX as i128 - base as i128) as u64;
                if (1u64 << width) - 1 > limit && (0..rows).any(|i| deltas.get(i) > limit) {
                    return Err(HyError::Storage(
                        "segment frame-of-reference block overflows BIGINT".into(),
                    ));
                }
                BlockData::For { base, deltas }
            }
            (DataType::Float64, encoding::PLAIN) => BlockData::PlainFloat(fixed(&mut r)?),
            (DataType::Bool, encoding::PLAIN) => BlockData::Bool(r.take(rows.div_ceil(8))?),
            (DataType::Varchar, encoding::PLAIN) => {
                let mut strs = Vec::with_capacity(rows.min(r.remaining() / 4));
                for _ in 0..rows {
                    let n = r.u32()? as usize;
                    strs.push(r.take(n)?);
                }
                BlockData::PlainStr(strs)
            }
            (DataType::Varchar, encoding::DICT_STR) => {
                let dict_len = r.u32()? as usize;
                if dict_len > rows || dict_len > r.remaining() / 4 + 1 {
                    return Err(HyError::Storage(format!(
                        "segment dictionary block declares {dict_len} entries for {rows} rows"
                    )));
                }
                let mut dict: Vec<&str> = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    let n = r.u32()? as usize;
                    let entry = std::str::from_utf8(r.take(n)?).map_err(|_| {
                        HyError::Storage("segment dictionary entry is not UTF-8".into())
                    })?;
                    // Selection binary-searches the dictionary.
                    if dict.last().is_some_and(|prev| *prev >= entry) {
                        return Err(HyError::Storage(
                            "segment dictionary is not strictly ascending".into(),
                        ));
                    }
                    dict.push(entry);
                }
                let width = r.u8()? as u32;
                if width > 32 {
                    return Err(HyError::Storage(format!(
                        "segment dictionary block has invalid index width {width}"
                    )));
                }
                let codes = Packed::new(r.take(r.remaining())?, rows, width)?;
                BlockData::Dict { dict, codes }
            }
            (dt, enc) => {
                return Err(HyError::Storage(format!(
                    "segment block encoding {enc} invalid for {dt}"
                )))
            }
        };
        Ok(Block { validity, data })
    }

    fn is_valid(&self, i: usize) -> bool {
        self.validity.is_none_or(|bits| bit(bits, i))
    }

    /// Narrow `rows` to those whose value is non-NULL and within `bounds`
    /// — the same rows the executor's comparison keeps, decided on the
    /// encoded form: integer compares on dictionary codes and FOR deltas,
    /// one test per RLE run, raw values otherwise.
    fn select(&self, bounds: Bounds<'_>, rows: Rows) -> Result<Rows> {
        let rows = match self.validity {
            Some(bits) => rows.retain(|i| bit(bits, i)),
            None => rows,
        };
        let none = Rows::Picked(Vec::new());
        Ok(match (&self.data, bounds) {
            (_, Bounds::Int { lo, hi }) if lo > hi => none,
            (BlockData::PlainInt(raw), Bounds::Int { lo, hi }) => {
                let (lo, hi) = (lo as i64, hi as i64);
                rows.retain(|i| (lo..=hi).contains(&(le_u64(raw, i) as i64)))
            }
            (BlockData::Rle(runs), Bounds::Int { lo, hi }) => {
                let (lo, hi) = (lo as i64, hi as i64);
                let pass: Vec<bool> = runs.iter().map(|(v, _)| (lo..=hi).contains(v)).collect();
                let mut cursor = RunCursor::new(runs);
                rows.retain(|i| pass[cursor.run_of(i)])
            }
            (BlockData::For { base, deltas }, Bounds::Int { lo, hi }) => {
                // `literal - base` leaves i64 for literals far from the
                // block's values; i128 holds every such difference. Deltas
                // are unsigned: an interval below zero holds none.
                let (lo, hi) = (lo - *base as i128, hi - *base as i128);
                if hi < 0 || lo > u64::MAX as i128 {
                    return Ok(none);
                }
                let (lo, hi) = (lo.max(0) as u64, hi.min(u64::MAX as i128) as u64);
                rows.retain(|i| (lo..=hi).contains(&deltas.get(i)))
            }
            (BlockData::PlainFloat(raw), Bounds::Float(lo, hi)) => {
                rows.retain(|i| within(f64::from_bits(le_u64(raw, i)), lo, hi))
            }
            (BlockData::PlainStr(strs), Bounds::Str(lo, hi)) => {
                rows.retain(|i| within(strs[i], lo, hi))
            }
            (BlockData::Dict { dict, codes }, Bounds::Str(lo, hi)) => {
                // The dictionary is sorted: the entries within the bounds
                // are one code interval, found by binary search. A block
                // without such an entry is done before a code is unpacked.
                let first = dict.partition_point(|e| !within(e.as_bytes(), lo, None));
                let end = dict.partition_point(|e| within(e.as_bytes(), None, hi));
                if first >= end {
                    return Ok(none);
                }
                let (first, end) = (first as u64, end as u64);
                let (len, mut past) = (dict.len() as u64, false);
                let rows = rows.retain(|i| {
                    let code = codes.get(i);
                    past |= code >= len;
                    (first..end).contains(&code)
                });
                check_codes(past)?;
                rows
            }
            _ => {
                return Err(HyError::Internal(
                    "segment select: bounds do not fit the block's type".into(),
                ))
            }
        })
    }

    /// Append the values of `rows` to `out` — the one place a block
    /// becomes values. NULL slots keep the physical value they were
    /// sealed with.
    fn decode_into(&self, rows: &Rows, out: &mut ColumnVector) -> Result<()> {
        let prior = out.len();
        let validity = match (&self.data, out) {
            (BlockData::PlainInt(raw), ColumnVector::Int64 { data, validity }) => {
                rows.gather(data, |i| le_u64(raw, i) as i64);
                validity
            }
            (BlockData::Rle(runs), ColumnVector::Int64 { data, validity }) => {
                let mut cursor = RunCursor::new(runs);
                rows.gather(data, |i| runs[cursor.run_of(i)].0);
                validity
            }
            (BlockData::For { base, deltas }, ColumnVector::Int64 { data, validity }) => {
                rows.gather(data, |i| base.wrapping_add(deltas.get(i) as i64));
                validity
            }
            (BlockData::PlainFloat(raw), ColumnVector::Float64 { data, validity }) => {
                rows.gather(data, |i| f64::from_bits(le_u64(raw, i)));
                validity
            }
            (BlockData::Bool(bits), ColumnVector::Bool { data, validity }) => {
                rows.gather(data, |i| bit(bits, i));
                validity
            }
            (BlockData::PlainStr(strs), ColumnVector::Varchar { data, validity }) => {
                let mut bad = false;
                rows.gather(data, |i| match std::str::from_utf8(strs[i]) {
                    Ok(s) => s.to_owned(),
                    Err(_) => {
                        bad = true;
                        String::new()
                    }
                });
                if bad {
                    return Err(HyError::Storage(
                        "segment string block holds invalid UTF-8".into(),
                    ));
                }
                validity
            }
            (BlockData::Dict { dict, codes }, ColumnVector::Varchar { data, validity }) => {
                let mut past = false;
                rows.gather(data, |i| match dict.get(codes.get(i) as usize) {
                    Some(entry) => (*entry).to_owned(),
                    None => {
                        past = true;
                        String::new()
                    }
                });
                check_codes(past)?;
                validity
            }
            _ => {
                return Err(HyError::Internal(
                    "segment decode: output column does not fit the block's type".into(),
                ))
            }
        };
        if self.validity.is_some() || validity.is_some() {
            let bm = validity.get_or_insert_with(|| Bitmap::filled(prior, true));
            rows.gather(bm, |i| self.is_valid(i));
        }
        Ok(())
    }
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

    /// One column block's encoded payload through the pool; a miss reads
    /// the body and verifies its CRC.
    fn block(&self, col: usize, blk: usize) -> Result<BlockBytes> {
        let meta = &self.meta.blocks[col][blk];
        let key = (self.meta.id, col as u32, blk as u32);
        self.pool.get_or_load(key, || {
            let body = self
                .vfs
                .read_range(&self.path, meta.offset, meta.len as u64)?;
            Ok(verify_block(meta, &body)?.into())
        })
    }

    /// Column `col`'s block `blk`, fetched and parsed on its first use
    /// in one block step of [`DiskSegment::read_selected`] — by a range,
    /// by the projection, or both. Returns its place in `parsed`, whose
    /// blocks borrow the payloads held in `payloads` (one free cell per
    /// column the step can touch).
    fn parsed<'p>(
        &self,
        col: usize,
        blk: usize,
        payloads: &'p [OnceCell<BlockBytes>],
        parsed: &mut Vec<(usize, Block<'p>)>,
    ) -> Result<usize> {
        if let Some(at) = parsed.iter().position(|(c, _)| *c == col) {
            return Ok(at);
        }
        let bytes = self.block(col, blk)?;
        let payload = payloads[parsed.len()].get_or_init(|| bytes);
        let block = Block::parse(self.meta.dtypes[col], &self.meta.blocks[col][blk], payload)?;
        parsed.push((col, block));
        Ok(parsed.len() - 1)
    }

    /// Materialize rows `[offset, offset+len)` of the given columns
    /// (`None` = all) as a chunk.
    pub fn read_rows(&self, offset: usize, len: usize, cols: Option<&[usize]>) -> Result<Chunk> {
        Ok(self.read_selected(offset, len, cols, &[], None, None)?.0)
    }

    /// The rows of `[offset, offset+len)` that are in `keep` (ascending
    /// positions relative to `offset`; `None` = all) and satisfy every
    /// range in `ranges`, projected to `cols` (`None` = all) — plus how
    /// many row-blocks the ranges emptied. `positions`, when asked for,
    /// receives where those rows sit, relative to `offset`.
    ///
    /// Block by block: each range is evaluated on its column's encoded
    /// block and narrows the selection; only if rows are left are the
    /// projected columns' blocks loaded, and only the selected rows are
    /// materialized. Without ranges, kept rows or columns no block is
    /// touched. The selection is a sound pre-filter, exact for the ranges
    /// storage evaluates; the caller still runs its full predicate.
    pub fn read_selected(
        &self,
        offset: usize,
        len: usize,
        cols: Option<&[usize]>,
        ranges: &[ZoneRange],
        keep: Option<&[usize]>,
        mut positions: Option<&mut Vec<usize>>,
    ) -> Result<(Chunk, usize)> {
        let dtypes = &self.meta.dtypes;
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
                all = (0..dtypes.len()).collect();
                &all
            }
        };
        if let Some(&c) = col_ids.iter().find(|&&c| c >= dtypes.len()) {
            return Err(HyError::Storage(format!(
                "segment {} has no column {c}",
                self.meta.id
            )));
        }
        // By column, so that a column's block is parsed once for all of
        // its ranges.
        let mut bounds: Vec<(usize, Bounds<'_>)> = ranges
            .iter()
            .filter(|r| r.col < dtypes.len())
            .filter_map(|r| Some((r.col, Bounds::of(r, dtypes[r.col])?)))
            .collect();
        bounds.sort_by_key(|(col, _)| *col);
        // Columns one block step can touch: the ranges' and the projected.
        let touched = bounds.chunk_by(|a, b| a.0 == b.0).count() + col_ids.len();
        let mut out: Vec<ColumnVector> = col_ids
            .iter()
            .map(|&c| ColumnVector::empty(dtypes[c]))
            .collect();
        let (mut selected, mut emptied) = (0usize, 0usize);
        let mut kept_from = 0usize;
        for blk in offset / BLOCK_ROWS..(offset + len).div_ceil(BLOCK_ROWS) {
            let blk_start = blk * BLOCK_ROWS;
            let lo = offset.max(blk_start) - blk_start;
            let hi = (offset + len).min(blk_start + BLOCK_ROWS) - blk_start;
            let mut rows = match keep {
                None => Rows::Span(lo..hi),
                Some(keep) => {
                    let rest = &keep[kept_from..];
                    let n = rest.partition_point(|&p| offset + p < blk_start + hi);
                    kept_from += n;
                    Rows::Picked(
                        rest[..n]
                            .iter()
                            .map(|&p| (offset + p - blk_start) as u32)
                            .collect(),
                    )
                }
            };
            let candidates = rows.len();
            let payloads: Vec<OnceCell<BlockBytes>> = std::iter::repeat_with(OnceCell::new)
                .take(touched)
                .collect();
            let mut parsed = Vec::new();
            for of_col in bounds.chunk_by(|a, b| a.0 == b.0) {
                if rows.is_empty() {
                    break;
                }
                let at = self.parsed(of_col[0].0, blk, &payloads, &mut parsed)?;
                for &(_, bounds) in of_col {
                    rows = parsed[at].1.select(bounds, rows)?;
                }
            }
            if rows.is_empty() {
                emptied += usize::from(candidates > 0);
                continue;
            }
            selected += rows.len();
            if let Some(positions) = &mut positions {
                rows.gather(&mut **positions, |i| blk_start + i - offset);
            }
            for (out, &c) in out.iter_mut().zip(col_ids) {
                let at = self.parsed(c, blk, &payloads, &mut parsed)?;
                parsed[at].1.decode_into(&rows, out)?;
            }
        }
        let chunk = if col_ids.is_empty() {
            Chunk::zero_column(selected)
        } else {
            Chunk::new(out)
        };
        Ok((chunk, emptied))
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
        if let Some(seg) = self.live.lock().get(&id).and_then(Weak::upgrade) {
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
        let (header_len, crc) = decode_prelude(&prelude, file_len)?;
        let header = self.vfs.read_range(&path, 16, header_len as u64)?;
        let meta = decode_header(&header, crc, file_len)?;
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
        self.live.lock().insert(id, Arc::downgrade(&seg));
        Ok(seg)
    }

    /// Delete segment files that are neither in `referenced` nor held
    /// open by a live snapshot. Returns the removed ids.
    pub fn gc(&self, referenced: &BTreeSet<u64>) -> Result<Vec<u64>> {
        let mut removed = Vec::new();
        for name in self.vfs.list_dir(&self.seg_dir)? {
            let Some(id) = parse_segment_file_name(&name) else {
                continue;
            };
            if referenced.contains(&id) {
                continue;
            }
            {
                let mut live = self.live.lock();
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

    // ---- predicates on encoded blocks: differential against row-at-a-time

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Three full blocks and a short one. Per column the encoder must pick
    /// the encoding its name says (asserted by the caller); block 2 of
    /// every nullable column is all NULL.
    const SELECT_ROWS: usize = 3 * BLOCK_ROWS + 123;
    const SELECT_ENCODINGS: [(DataType, u8); 7] = [
        (DataType::Int64, encoding::PLAIN),
        (DataType::Int64, encoding::RLE_INT),
        (DataType::Int64, encoding::FOR_INT),
        (DataType::Int64, encoding::FOR_INT),
        (DataType::Float64, encoding::PLAIN),
        (DataType::Varchar, encoding::DICT_STR),
        (DataType::Varchar, encoding::PLAIN),
    ];

    fn select_chunk(seed: u64) -> Chunk {
        let mut s = seed;
        let null_at = |i: usize, every: usize| i / BLOCK_ROWS == 2 || i % every == 3;
        let mut plain = Vec::new();
        let mut rle = Vec::new();
        let mut for_low = Vec::new();
        let mut for_high = Vec::new();
        let mut floats = Vec::new();
        let mut dict = Vec::new();
        let mut strs = Vec::new();
        for i in 0..SELECT_ROWS {
            let r = splitmix(&mut s);
            // Wider than 57 bits: neither FOR nor RLE applies.
            plain.push(Value::Int(match r % 9 {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => r as i64,
            }));
            // Long runs of far-apart values.
            let run = (i / 97) as i64;
            rle.push(if null_at(i, 41) {
                Value::Null
            } else {
                Value::Int([i64::MIN, -5, 0, 7, i64::MAX][(run % 5) as usize])
            });
            // A narrow band around a negative base ...
            for_low.push(if null_at(i, 29) {
                Value::Null
            } else {
                Value::Int(-1_000_000 + (r % 5000) as i64)
            });
            // ... and one ending at i64::MAX, so `literal - base` leaves i64
            // for every negative literal.
            for_high.push(Value::Int(i64::MAX - (r % 3000) as i64));
            floats.push(if null_at(i, 37) {
                Value::Null
            } else {
                Value::Float(match r % 11 {
                    0 => f64::NAN,
                    1 => -0.0,
                    2 => 0.0,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    _ => (r % 2000) as f64 / 8.0 - 100.0,
                })
            });
            dict.push(if null_at(i, 31) {
                Value::Null
            } else {
                Value::from(format!("k{:02}", (r % 12) * 2))
            });
            strs.push(Value::from(format!("u{:05}-{i}", r % 100_000)));
        }
        let columns = [plain, rle, for_low, for_high, floats, dict, strs];
        Chunk::new(
            columns
                .iter()
                .zip(SELECT_ENCODINGS)
                .map(|(values, (dtype, _))| ColumnVector::from_values(dtype, values).unwrap())
                .collect(),
        )
    }

    /// The executor's comparison, row at a time on decoded values.
    fn reference_match(v: &Value, range: &ZoneRange) -> bool {
        use std::cmp::Ordering::*;
        let cmp = |bound: &Value| match (v, bound) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        };
        let lower = range.lower.as_ref().is_none_or(|(b, inclusive)| {
            matches!(
                (cmp(b), inclusive),
                (Some(Greater), _) | (Some(Equal), true)
            )
        });
        let upper = range.upper.as_ref().is_none_or(|(b, inclusive)| {
            matches!((cmp(b), inclusive), (Some(Less), _) | (Some(Equal), true))
        });
        lower && upper
    }

    /// `=`, `<`, `<=`, `>`, `>=` against `lit`, then every two-sided
    /// window between two literals with all four inclusivity pairs.
    fn ranges_over(col: usize, literals: &[Value]) -> Vec<ZoneRange> {
        let mut out = Vec::new();
        for lit in literals {
            let bound = |inclusive| Some((lit.clone(), inclusive));
            for (lower, upper) in [
                (bound(true), bound(true)),
                (None, bound(false)),
                (None, bound(true)),
                (bound(false), None),
                (bound(true), None),
            ] {
                out.push(ZoneRange { col, lower, upper });
            }
        }
        for (a, b) in literals.iter().zip(literals.iter().skip(1)) {
            for (lo_inclusive, hi_inclusive) in
                [(true, true), (true, false), (false, true), (false, false)]
            {
                out.push(ZoneRange {
                    col,
                    lower: Some((a.clone(), lo_inclusive)),
                    upper: Some((b.clone(), hi_inclusive)),
                });
            }
        }
        out
    }

    /// Literals that matter per column: every block's zone minimum and
    /// maximum, their neighbours, the type's extremes, values between and
    /// outside the dictionary's entries.
    fn literals_for(col: usize, meta: &SegmentMeta) -> Vec<Value> {
        let mut out: Vec<Value> = Vec::new();
        for bm in &meta.blocks[col] {
            out.extend(bm.min.clone());
            out.extend(bm.max.clone());
        }
        match meta.dtypes[col] {
            DataType::Int64 => {
                let near: Vec<i64> = out.iter().filter_map(|v| v.as_int().ok()).collect();
                for v in near {
                    out.push(Value::Int(v.saturating_add(1)));
                    out.push(Value::Int(v.saturating_sub(1)));
                }
                out.extend(
                    [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX].map(Value::Int),
                );
            }
            DataType::Float64 => {
                out.extend(
                    [
                        f64::NEG_INFINITY,
                        -100.0,
                        -0.0,
                        0.0,
                        0.125,
                        17.3,
                        f64::INFINITY,
                    ]
                    .map(Value::Float),
                );
            }
            _ => {
                out.extend(
                    ["", "k", "k00", "k01", "k10", "k22", "k23", "u", "u5", "zzz"].map(Value::from),
                );
            }
        }
        let mut seen = std::collections::HashSet::new();
        out.retain(|v| seen.insert(format!("{v:?}")));
        out
    }

    /// Read the ranges' columns and the row-unique last column through
    /// `read_selected` and compare with the rows of `values` (the decoded
    /// table, column-major) the reference keeps.
    fn assert_selects_like_reference(
        seg: &DiskSegment,
        values: &[Vec<Value>],
        ranges: &[ZoneRange],
        keep: Option<&[usize]>,
    ) {
        let rows = values[0].len();
        let mut cols: Vec<usize> = ranges.iter().map(|r| r.col).collect();
        cols.push(values.len() - 1);
        let mut at = Vec::new();
        let (got, _) = seg
            .read_selected(0, rows, Some(&cols), ranges, keep, Some(&mut at))
            .unwrap();
        let mut kept = keep.map(|k| k.iter().copied().peekable());
        let expect: Vec<usize> = (0..rows)
            .filter(|i| kept.as_mut().is_none_or(|k| k.next_if_eq(i).is_some()))
            .filter(|&i| ranges.iter().all(|r| reference_match(&values[r.col][i], r)))
            .collect();
        assert_eq!(at, expect, "positions under {ranges:?}");
        assert_eq!(got.len(), expect.len(), "row count under {ranges:?}");
        for (at, &i) in expect.iter().enumerate() {
            for (slot, &c) in cols.iter().enumerate() {
                let (g, e) = (got.column(slot).value(at), &values[c][i]);
                let same = match (&g, e) {
                    (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                    _ => g == *e,
                };
                assert!(same, "row {i} column {c} under {ranges:?}: {g:?} vs {e:?}");
            }
        }
    }

    #[test]
    fn selection_on_encoded_blocks_matches_row_at_a_time() {
        for seed in [1u64, 2] {
            let chunk = select_chunk(seed);
            let (_vfs, store) = store();
            let id = store.alloc_id();
            store.write_segment(id, &chunk).unwrap();
            let seg = store.open_segment(id).unwrap();
            let meta = seg.meta();
            for (c, (_, enc)) in SELECT_ENCODINGS.iter().enumerate() {
                let picked: Vec<u8> = meta.blocks[c].iter().map(|b| b.encoding).collect();
                assert!(
                    picked.contains(enc),
                    "column {c}: encoder picked {picked:?}"
                );
            }
            assert_eq!(
                meta.blocks[1][2].null_count as usize, BLOCK_ROWS,
                "all-NULL block"
            );
            assert_eq!(meta.blocks[0][3].rows, 123, "short last block");
            let values: Vec<Vec<Value>> = (0..chunk.num_columns())
                .map(|c| (0..chunk.len()).map(|i| chunk.column(c).value(i)).collect())
                .collect();
            let mut per_column = Vec::new();
            for c in 0..chunk.num_columns() {
                let ranges = ranges_over(c, &literals_for(c, meta));
                for r in &ranges {
                    assert_selects_like_reference(&seg, &values, std::slice::from_ref(r), None);
                }
                per_column.push(ranges);
            }
            // Conjunctions across columns, and rows already deleted.
            let mut s = seed;
            let keep: Vec<usize> = (0..chunk.len()).filter(|i| i % 5 != 1).collect();
            for _ in 0..300 {
                let picks: Vec<ZoneRange> = (0..1 + splitmix(&mut s) % 3)
                    .map(|_| {
                        let of = &per_column[splitmix(&mut s) as usize % per_column.len()];
                        of[splitmix(&mut s) as usize % of.len()].clone()
                    })
                    .collect();
                assert_selects_like_reference(&seg, &values, &picks, None);
                assert_selects_like_reference(&seg, &values, &picks, Some(&keep));
            }
        }
    }

    #[test]
    fn ranges_storage_cannot_reproduce_select_every_row() {
        let chunk = select_chunk(9);
        let (_vfs, store) = store();
        let id = store.alloc_id();
        store.write_segment(id, &chunk).unwrap();
        let seg = store.open_segment(id).unwrap();
        let point = |col, v: Value| ZoneRange {
            col,
            lower: Some((v.clone(), true)),
            upper: Some((v, true)),
        };
        for range in [
            point(2, Value::Float(-999_000.0)), // DOUBLE literal, BIGINT column
            point(4, Value::Int(0)),            // BIGINT literal, DOUBLE column
            point(4, Value::Float(f64::NAN)),
            point(5, Value::Int(3)),
            point(0, Value::Null),
        ] {
            let (got, emptied) = seg
                .read_selected(
                    0,
                    chunk.len(),
                    Some(&[0]),
                    std::slice::from_ref(&range),
                    None,
                    None,
                )
                .unwrap();
            assert_eq!((got.len(), emptied), (chunk.len(), 0), "{range:?}");
        }
    }

    #[test]
    fn emptied_blocks_load_no_projected_column() {
        let chunk = select_chunk(4);
        let (_vfs, store) = store();
        let id = store.alloc_id();
        store.write_segment(id, &chunk).unwrap();
        let seg = store.open_segment(id).unwrap();
        // "k01" lies between dictionary entries: no block holds it, and no
        // block of the projected column is read to find that out.
        let absent = ZoneRange {
            col: 5,
            lower: Some((Value::from("k01"), true)),
            upper: Some((Value::from("k01"), true)),
        };
        let before = store.pool().stats().misses;
        let (got, emptied) = seg
            .read_selected(0, chunk.len(), Some(&[6]), &[absent], None, None)
            .unwrap();
        // The all-NULL block holds no candidate... but is still emptied by
        // the range; every one of the four row-blocks is.
        assert_eq!((got.len(), emptied), (0, 4));
        assert_eq!(
            store.pool().stats().misses - before,
            4,
            "the dictionary blocks only"
        );
        // Zero columns, no range: nothing is loaded at all.
        let before = store.pool().stats();
        let (got, _) = seg
            .read_selected(0, chunk.len(), Some(&[]), &[], None, None)
            .unwrap();
        assert_eq!(got.len(), chunk.len());
        let after = store.pool().stats();
        assert_eq!((after.hits, after.misses), (before.hits, before.misses));
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
        let referenced: BTreeSet<u64> = [a].into_iter().collect();
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
