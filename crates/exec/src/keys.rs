//! Typed hash keys and the group index — the one key representation of
//! hash join, hash aggregate, DISTINCT, UNION and recursive-CTE dedup.
//!
//! A [`KeyLayout`] is chosen once per operator from the key columns'
//! types and has two forms. **Fixed**: every column is BIGINT, DOUBLE or
//! BOOLEAN and the values pack into 16 bytes; a key is those 128 bits
//! plus a NULL mask, hashed and compared as integers. **Bytes**: anything
//! else (VARCHAR, wider keys); a row's key is serialised with a tag per
//! column and looked up as `&[u8]`, copied only when it is new. Either
//! way DOUBLEs are keyed by canonical bits: `-0.0` as `0.0` and every
//! NaN as one NaN, so grouping agrees with ORDER BY
//! ([`hylite_common::Value::sort_cmp`]).
//!
//! A [`GroupIndex`] maps keys to dense `u32` group ids in first-seen
//! order, a chunk at a time. Grouping operators count NULL (and NaN) as
//! a key like any other; a join's index gives rows with a NULL or NaN key
//! no group at all ([`NO_GROUP`]), because `=` is never true for them.

use std::hash::Hasher;
use std::ops::Range;
use std::sync::Arc;

use hylite_common::hash::MulHasher;
use hylite_common::{Bitmap, ColumnVector, DataType, HyError, Result};

/// The id of a row that belongs to no group: a join key with a NULL or
/// NaN in it, or a probe key the index does not hold.
pub const NO_GROUP: u32 = u32::MAX;

/// Payload bits of a fixed key.
const FIXED_BITS: u32 = 128;

/// Rows encoded at a time: the keys of a block stay in cache between
/// being written and being looked up, however long the chunk.
const BLOCK_ROWS: usize = 1024;

/// How an operator's key columns are encoded.
#[derive(Debug, Clone)]
pub struct KeyLayout {
    /// Fixed form: each column's bit offset in the payload. `None` is the
    /// bytes form.
    shifts: Option<Vec<u32>>,
}

impl KeyLayout {
    /// The layout for key columns of these types: fixed when they fit.
    pub fn new(types: &[DataType]) -> KeyLayout {
        let bits = |t: &DataType| match t {
            DataType::Bool => 8,
            DataType::Varchar => FIXED_BITS + 1,
            _ => 64,
        };
        let mut end = 0;
        let shifts = types.iter().map(|t| {
            end += bits(t);
            end - bits(t)
        });
        let shifts: Vec<u32> = shifts.collect();
        KeyLayout {
            shifts: (end <= FIXED_BITS).then_some(shifts),
        }
    }

    /// The bytes form whatever the types: tests run every case under it.
    #[cfg(test)]
    pub(crate) fn bytes(_types: &[DataType]) -> KeyLayout {
        KeyLayout { shifts: None }
    }

    /// The types a join's equi keys are keyed in: each pair of sides in
    /// the type the `=` kernel compares it in (BIGINT = DOUBLE as DOUBLE).
    pub fn join_types(left: &[DataType], right: &[DataType]) -> Result<Vec<DataType>> {
        let pairs = left.iter().zip(right);
        pairs.map(|(l, r)| l.common_type(*r)).collect()
    }

    /// Encode the keys of the rows in `block` into `out`, replacing its
    /// content. `nan_is_null`: a NaN marks its key as a NULL does.
    fn encode(
        &self,
        cols: &[Arc<ColumnVector>],
        block: Range<usize>,
        nan_is_null: bool,
        out: &mut BlockKeys,
    ) {
        out.clear();
        let Some(shifts) = &self.shifts else {
            for i in block {
                let start = out.buf.len();
                let mut null = false;
                for col in cols {
                    out.buf.push(col.is_valid(i) as u8);
                    match col.as_ref() {
                        _ if !col.is_valid(i) => null = true,
                        ColumnVector::Int64 { data, .. } => out.word(data[i] as u64),
                        ColumnVector::Float64 { data, .. } => {
                            null |= nan_is_null && data[i].is_nan();
                            out.word(float_bits(data[i]));
                        }
                        ColumnVector::Bool { data, .. } => out.buf.push(data[i] as u8),
                        ColumnVector::Varchar { data, .. } => {
                            out.word(data[i].len() as u64);
                            out.buf.extend_from_slice(data[i].as_bytes());
                        }
                    }
                }
                out.hashes.push(hash_bytes(&out.buf[start..]));
                out.ends.push((out.buf.len(), null));
            }
            return;
        };
        let float_word = |x: f64| (!(nan_is_null && x.is_nan())).then(|| float_bits(x));
        out.fixed.resize(block.len(), FixedKey::default());
        for (c, col) in cols.iter().enumerate() {
            let rows = (&mut out.fixed[..], block.clone(), col.validity());
            let at = (c, shifts[c]);
            match col.as_ref() {
                ColumnVector::Int64 { data, .. } => fill(rows, at, |i| Some(data[i] as u64)),
                ColumnVector::Float64 { data, .. } => fill(rows, at, |i| float_word(data[i])),
                ColumnVector::Bool { data, .. } => fill(rows, at, |i| Some(data[i] as u64)),
                ColumnVector::Varchar { .. } => unreachable!("VARCHAR keys take the bytes form"),
            }
        }
        out.hashes.extend(out.fixed.iter().map(FixedKey::hash));
    }
}

/// The bits two DOUBLEs share exactly when grouping calls them equal:
/// one NaN, and `0.0` for `-0.0` (what adding `0.0` makes of it, and of
/// nothing else).
fn float_bits(x: f64) -> u64 {
    (if x.is_nan() { f64::NAN } else { x + 0.0 }).to_bits()
}

/// OR column `c`'s values (or NULL bits) of a block's rows into its keys.
fn fill(
    (keys, block, validity): (&mut [FixedKey], Range<usize>, Option<&Bitmap>),
    (c, shift): (usize, u32),
    value: impl Fn(usize) -> Option<u64>,
) {
    for (key, i) in keys.iter_mut().zip(block) {
        match value(i).filter(|_| validity.is_none_or(|v| v.get(i))) {
            Some(v) => key.bits |= (v as u128) << shift,
            None => key.nulls |= 1 << c,
        }
    }
}

/// A fixed-form key: the packed values and one NULL bit per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct FixedKey {
    bits: u128,
    nulls: u32,
}

impl FixedKey {
    fn hash(&self) -> u64 {
        let mut h = MulHasher::default();
        h.write_u64(self.bits as u64);
        h.write_u64((self.bits >> 64) as u64);
        h.write_u64(self.nulls.into());
        h.finish()
    }
}

fn hash_bytes(key: &[u8]) -> u64 {
    let mut h = MulHasher::default();
    h.write(key);
    h.finish()
}

/// A key of either form, as the index stores and compares it.
trait Key: Copy {
    /// Whether `group`'s key is this one.
    fn is_key_of(self, index: &GroupIndex, group: usize) -> bool;
    /// Append this key as the next group's.
    fn store(self, index: &mut GroupIndex);
}

impl Key for &FixedKey {
    fn is_key_of(self, index: &GroupIndex, group: usize) -> bool {
        index.fixed[group] == *self
    }

    fn store(self, index: &mut GroupIndex) {
        index.fixed.push(*self);
    }
}

impl Key for &[u8] {
    fn is_key_of(self, index: &GroupIndex, group: usize) -> bool {
        index.arena[index.ends[group]..index.ends[group + 1]] == *self
    }

    fn store(self, index: &mut GroupIndex) {
        index.arena.extend_from_slice(self);
        index.ends.push(index.arena.len());
    }
}

/// The encoded keys of one block of rows; the layout's form says which
/// half is filled. Kept by the index between blocks and chunks so the
/// buffers are reused.
#[derive(Debug, Default)]
struct BlockKeys {
    /// Each row's key hash, either form.
    hashes: Vec<u64>,
    fixed: Vec<FixedKey>,
    /// Bytes form: the rows' keys back to back; where each ends, and
    /// whether it has a NULL (or a NaN that counts as one) in it.
    buf: Vec<u8>,
    ends: Vec<(usize, bool)>,
}

impl BlockKeys {
    fn clear(&mut self) {
        self.hashes.clear();
        self.fixed.clear();
        self.buf.clear();
        self.ends.clear();
    }

    fn word(&mut self, word: u64) {
        self.buf.extend_from_slice(&word.to_le_bytes());
    }

    /// The fixed form's keys, each with whether it has a NULL in it.
    fn fixed_rows(&self) -> impl Iterator<Item = (&FixedKey, bool)> {
        self.fixed.iter().map(|key| (key, key.nulls != 0))
    }

    /// The bytes form's keys, each with whether it has a NULL in it.
    fn byte_rows(&self) -> impl Iterator<Item = (&[u8], bool)> {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&(end, _)| end));
        let keys = starts.zip(&self.ends);
        keys.map(|(start, &(end, null))| (&self.buf[start..end], null))
    }
}

/// Keys → dense group ids in first-seen order.
#[derive(Debug)]
pub struct GroupIndex {
    layout: KeyLayout,
    /// Grouping semantics (NULL and NaN are keys) or join semantics
    /// (rows with one get [`NO_GROUP`]).
    nulls_match: bool,
    /// Open addressing with linear probing over a power-of-two table of
    /// group ids; [`NO_GROUP`] marks a free slot. At most a quarter full:
    /// a probe rarely meets a second key.
    slots: Vec<u32>,
    /// Each group's key hash: where its slot is when the table grows.
    hashes: Vec<u64>,
    /// Fixed form: the key of each group.
    fixed: Vec<FixedKey>,
    /// Bytes form: the groups' keys back to back; group `g`'s is
    /// `arena[ends[g]..ends[g + 1]]`.
    arena: Vec<u8>,
    ends: Vec<usize>,
    scratch: BlockKeys,
}

impl GroupIndex {
    /// An index for GROUP BY, DISTINCT and dedup: NULL keys form one
    /// group, NaN keys another.
    pub fn for_grouping(layout: KeyLayout) -> GroupIndex {
        GroupIndex {
            layout,
            nulls_match: true,
            slots: vec![NO_GROUP; 16],
            hashes: Vec::new(),
            fixed: Vec::new(),
            arena: Vec::new(),
            ends: vec![0],
            scratch: BlockKeys::default(),
        }
    }

    /// An index for a join's build side: rows with a NULL or NaN key are
    /// in no group, on either side.
    pub fn for_join(layout: KeyLayout) -> GroupIndex {
        GroupIndex {
            nulls_match: false,
            ..GroupIndex::for_grouping(layout)
        }
    }

    /// Number of groups (distinct keys) so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True before the first key.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The key layout's form, `"fixed"` or `"bytes"`, as EXPLAIN ANALYZE
    /// prints it.
    pub fn layout_name(&self) -> &'static str {
        match self.layout.shifts {
            Some(_) => "fixed",
            None => "bytes",
        }
    }

    /// The group id of every row of a chunk's key columns (of the types
    /// the layout was made for) into `ids`, giving each key not seen
    /// before the next id. Returns the rows that brought those keys —
    /// each new key's first occurrence, in row order.
    pub fn insert_chunk(
        &mut self,
        cols: &[Arc<ColumnVector>],
        rows: usize,
        ids: &mut Vec<u32>,
    ) -> Result<Vec<usize>> {
        let mut keys = std::mem::take(&mut self.scratch);
        let mut fresh = Vec::new();
        ids.clear();
        for start in (0..rows).step_by(BLOCK_ROWS) {
            let block = start..rows.min(start + BLOCK_ROWS);
            self.layout
                .encode(cols, block, !self.nulls_match, &mut keys);
            self.insert_keys(keys.fixed_rows(), &keys.hashes, ids, &mut fresh)?;
            self.insert_keys(keys.byte_rows(), &keys.hashes, ids, &mut fresh)?;
        }
        self.scratch = keys;
        Ok(fresh)
    }

    /// The group id of every row into `ids`, [`NO_GROUP`] for keys the
    /// index does not hold. Inserts nothing.
    pub fn lookup_chunk(&self, cols: &[Arc<ColumnVector>], rows: usize, ids: &mut Vec<u32>) {
        let mut keys = BlockKeys::default();
        ids.clear();
        for start in (0..rows).step_by(BLOCK_ROWS) {
            let block = start..rows.min(start + BLOCK_ROWS);
            self.layout
                .encode(cols, block, !self.nulls_match, &mut keys);
            self.lookup_keys(keys.fixed_rows(), &keys.hashes, ids);
            self.lookup_keys(keys.byte_rows(), &keys.hashes, ids);
        }
    }

    fn insert_keys<K: Key>(
        &mut self,
        keys: impl Iterator<Item = (K, bool)>,
        hashes: &[u64],
        ids: &mut Vec<u32>,
        fresh: &mut Vec<usize>,
    ) -> Result<()> {
        for ((key, null), &hash) in keys.zip(hashes) {
            ids.push(if null && !self.nulls_match {
                NO_GROUP
            } else {
                match self.find(key, hash) {
                    Ok(group) => group,
                    Err(slot) => {
                        fresh.push(ids.len());
                        self.add(key, hash, slot)?
                    }
                }
            });
        }
        Ok(())
    }

    fn lookup_keys<K: Key>(
        &self,
        keys: impl Iterator<Item = (K, bool)>,
        hashes: &[u64],
        ids: &mut Vec<u32>,
    ) {
        ids.extend(keys.zip(hashes).map(|((key, null), &hash)| {
            if null && !self.nulls_match {
                NO_GROUP
            } else {
                self.find(key, hash).unwrap_or(NO_GROUP)
            }
        }));
    }

    /// The group holding the key, or the free slot where it belongs.
    fn find<K: Key>(&self, key: K, hash: u64) -> std::result::Result<u32, usize> {
        // The hash's home slot is its high bits (see [`MulHasher`]).
        let mut slot = (hash >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                NO_GROUP => return Err(slot),
                group if key.is_key_of(self, group as usize) => return Ok(group),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// Store a key `find` did not find, at the free `slot` it named.
    fn add<K: Key>(&mut self, key: K, hash: u64, slot: usize) -> Result<u32> {
        let id = u32::try_from(self.len()).ok().filter(|&id| id != NO_GROUP);
        let id =
            id.ok_or_else(|| HyError::Execution("over 2^32 - 2 keys in a hash table".into()))?;
        key.store(self);
        self.hashes.push(hash);
        self.slots[slot] = id;
        if self.len() * 4 > self.slots.len() {
            let size = self.slots.len() * 2;
            self.slots.clear();
            self.slots.resize(size, NO_GROUP);
            for (group, hash) in self.hashes.iter().enumerate() {
                let mut slot = (hash >> (64 - size.trailing_zeros())) as usize;
                while self.slots[slot] != NO_GROUP {
                    slot = (slot + 1) & (size - 1);
                }
                self.slots[slot] = group as u32;
            }
        }
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use DataType::{Bool, Float64, Int64, Null, Varchar};

    fn shared(col: ColumnVector) -> Arc<ColumnVector> {
        Arc::new(col)
    }

    #[test]
    fn fixed_when_the_values_pack_into_sixteen_bytes() {
        for (types, name) in [
            (vec![], "fixed"),
            (vec![Int64], "fixed"),
            (vec![Int64, Float64], "fixed"),
            (vec![Null, Bool], "fixed"),
            (
                vec![Bool, Int64, Bool, Bool, Bool, Bool, Bool, Bool, Bool],
                "fixed",
            ),
            (vec![Bool; 16], "fixed"),
            (vec![Bool; 17], "bytes"),
            (vec![Int64, Int64, Bool], "bytes"),
            (vec![Int64, Int64, Int64], "bytes"),
            (vec![Varchar], "bytes"),
        ] {
            let name_of = |layout| GroupIndex::for_grouping(layout).layout_name();
            assert_eq!(name_of(KeyLayout::new(&types)), name, "{types:?}");
            assert_eq!(name_of(KeyLayout::bytes(&types)), "bytes");
        }
    }

    #[test]
    fn join_keys_take_the_type_equality_compares_in() {
        let types = KeyLayout::join_types(&[Int64, Float64, Null], &[Float64, Float64, Varchar]);
        assert_eq!(types.unwrap(), [Float64, Float64, Varchar]);
        assert!(KeyLayout::join_types(&[Bool], &[Int64]).is_err());
    }

    fn both_layouts(types: &[DataType]) -> [KeyLayout; 2] {
        [KeyLayout::new(types), KeyLayout::bytes(types)]
    }

    #[test]
    fn ids_are_dense_in_first_seen_order_and_keys_come_back() {
        let mut floats = ColumnVector::from_f64(vec![-0.0, f64::NAN, 0.0, 2.5, -f64::NAN]);
        floats.push_null();
        floats.push_null();
        let (floats, flags) = (
            shared(floats),
            shared(ColumnVector::from_bool(vec![
                true, false, true, true, false, false, false,
            ])),
        );
        for layout in both_layouts(&[Float64, Bool]) {
            let mut index = GroupIndex::for_grouping(layout);
            let mut ids = Vec::new();
            let fresh = index
                .insert_chunk(&[floats.clone(), flags.clone()], 7, &mut ids)
                .unwrap();
            // -0.0 is 0.0, every NaN is one NaN, NULL is a key.
            assert_eq!(ids, [0, 1, 0, 2, 1, 3, 3]);
            assert_eq!(fresh, [0, 1, 3, 5]);
            assert_eq!(index.len(), 4);
            // Seen again, nothing is new; a lookup finds what was inserted.
            assert!(index
                .insert_chunk(&[floats.clone(), flags.clone()], 7, &mut ids)
                .unwrap()
                .is_empty());
            index.lookup_chunk(&[floats.clone(), flags.clone()], 7, &mut ids);
            assert_eq!(ids, [0, 1, 0, 2, 1, 3, 3]);
        }
    }

    #[test]
    fn a_join_index_leaves_null_and_nan_keys_out() {
        let mut build = ColumnVector::from_f64(vec![1.0, f64::NAN, 2.0]);
        build.push_null();
        let (build, probe) = (
            [shared(build)],
            [shared(ColumnVector::from_f64(vec![2.0, 1.0, 3.0]))],
        );
        for layout in both_layouts(&KeyLayout::join_types(&[Int64], &[Float64]).unwrap()) {
            let mut index = GroupIndex::for_join(layout);
            let mut ids = Vec::new();
            index.insert_chunk(&build, 4, &mut ids).unwrap();
            assert_eq!(ids, [0, NO_GROUP, 1, NO_GROUP]);
            index.lookup_chunk(&probe, 3, &mut ids);
            assert_eq!(ids, [1, 0, NO_GROUP]);
            index.lookup_chunk(&build, 4, &mut ids);
            assert_eq!(ids, [0, NO_GROUP, 1, NO_GROUP], "NaN and NULL find nothing");
        }
    }

    #[test]
    fn the_table_grows_and_blocks_join_up() {
        // More rows than a block, more keys than the first table.
        let n = 3 * BLOCK_ROWS + 17;
        let ints = shared(ColumnVector::from_i64(
            (0..n as i64).map(|i| i % 2500 - 1000).collect(),
        ));
        let strs = shared(ColumnVector::from_str(
            (0..n).map(|i| format!("s{}", i % 2500)).collect(),
        ));
        for layout in both_layouts(&[Int64, Varchar]) {
            let mut index = GroupIndex::for_grouping(layout);
            let mut ids = Vec::new();
            index
                .insert_chunk(&[ints.clone(), strs.clone()], n, &mut ids)
                .unwrap();
            assert_eq!(index.len(), 2500);
            let expect: Vec<u32> = (0..n as u32).map(|i| i % 2500).collect();
            assert_eq!(ids, expect);
        }
    }
}
