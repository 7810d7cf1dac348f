//! A small multiplicative hasher for the executor's key tables.
//!
//! The build is offline, so this stands in for the usual third-party
//! fast hashers: one rotate, one xor and one multiply per 64-bit word.
//! The last step is a multiply, so the *high* bits are the well-mixed
//! ones — a power-of-two table indexes with `hash >> (64 - bits)`.
//! Unlike the standard library's SipHash it has no secret key; the
//! executor's tables are bounded by the statement governor, not by the
//! hash, against keys crafted to collide.

use std::hash::Hasher;

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
}
