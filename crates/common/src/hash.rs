//! A small multiplicative hasher for the executor's key tables.
//!
//! The build is offline, so this stands in for the usual third-party
//! fast hashers: one rotate, one xor and one multiply per 64-bit word.
//! The last step is a multiply, so the *high* bits are the well-mixed
//! ones — a power-of-two table indexes with `hash >> (64 - bits)`.
//! Unlike the standard library's SipHash it has no secret key; the
//! executor's tables are bounded by the statement governor, not by the
//! hash, against keys crafted to collide.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread bits (the `FxHash` constant).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Word-at-a-time multiplicative hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.write_u64(u64::from_le_bytes(last));
        }
        // The length separates "ab" + "" from "a" + "b" style prefixes.
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`MulHasher`] for tables that index with the *low* hash bits, as the
/// standard library's `HashMap` does: `finish` folds the well-mixed high
/// half onto the low one, so keys that differ only above some power of
/// two (`i << 20`) still spread. The executor's own tables index with the
/// high bits and keep using [`MulHasher`] unfolded.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(MulHasher);

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0.write_u64(word);
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let h = self.0.finish();
        h ^ (h >> 32)
    }
}

/// A `HashMap` hashed with [`FoldHasher`] — for keys the statement
/// governor bounds (vertex ids of a query-local graph, class labels of a
/// chunk), where SipHash's keyed protection buys nothing.
pub type FoldMap<K, V> = HashMap<K, V, BuildHasherDefault<FoldHasher>>;

/// One SplitMix64 step: a tiny, seedable, well-mixed 64-bit permutation
/// for retry jitter, session and epoch ids and deterministic fault
/// schedules (iterate it for a stream).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_bytes(b: &[u8]) -> u64 {
        let mut h = MulHasher::default();
        h.write(b);
        h.finish()
    }

    #[test]
    fn equal_input_equal_hash_and_tail_bytes_count() {
        assert_eq!(hash_bytes(b"hello world"), hash_bytes(b"hello world"));
        assert_ne!(hash_bytes(b"hello world"), hash_bytes(b"hello worle"));
        assert_ne!(hash_bytes(b"a"), hash_bytes(b"a\0"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn dense_integers_spread_over_the_high_bits() {
        // 4096 consecutive ids, hashed as the executor hashes a fixed key
        // (value, second word, NULL mask), into a table at its fullest
        // (a quarter): no slot may take more than a handful, or linear
        // probing degenerates.
        let mut slots = [0u8; 16384];
        for id in 0..4096u64 {
            let mut h = MulHasher::default();
            h.write_u64(id);
            h.write_u64(0);
            h.write_u64(0);
            slots[(h.finish() >> (64 - 14)) as usize] += 1;
        }
        let worst = slots.iter().max().copied();
        assert!(worst <= Some(4), "clustered: {worst:?} keys in one slot");
    }

    #[test]
    fn folded_hash_spreads_multiples_of_a_power_of_two_over_the_low_bits() {
        // `(i << 20) * K` has 20 zero low bits: unfolded, every such key
        // lands in one bucket of a table that indexes with the low bits.
        let low_bits = |fold: bool| {
            let mut slots = [0u16; 16384];
            for id in 0..4096i64 {
                let hash = if fold {
                    let mut h = FoldHasher::default();
                    h.write_i64(id << 20);
                    h.finish()
                } else {
                    let mut h = MulHasher::default();
                    h.write_i64(id << 20);
                    h.finish()
                };
                slots[(hash & 16383) as usize] += 1;
            }
            slots.iter().max().copied()
        };
        assert_eq!(low_bits(false), Some(4096), "the pitfall this type is for");
        assert!(low_bits(true) <= Some(4), "clustered: {:?}", low_bits(true));
    }
}
