//! CRC-32 (IEEE 802.3 polynomial) — the checksum guarding WAL frames,
//! checkpoint and backup files and every segment block against torn
//! writes and bit rot.
//!
//! `hylite-common` is dependency-free, so this is slice-by-8: eight
//! 1 KiB lookup tables built at compile time, eight input bytes folded
//! per step with independent probes. Throughput matters: every
//! buffer-pool miss re-verifies its block's CRC, so a cold scan checksums
//! every byte it reads.

/// The reflected IEEE polynomial used by zlib, PNG, Ethernet, ...
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Fold `data` into a running (pre-inverted) CRC one byte at a time.
fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 of `data` (IEEE, reflected, init/xorout `0xFFFF_FFFF` — the
/// standard `crc32()` everyone else computes).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    update_bytewise(crc, words.remainder()) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-probe-per-byte loop: the oracle for the word-at-a-time one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        update_bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard test vectors for IEEE CRC-32.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = b"hello durable world".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() * 8 {
            let mut flipped = base.clone();
            flipped[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&flipped), reference, "bit {i} flip undetected");
        }
    }

    fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                // splitmix64
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn word_at_a_time_matches_bytewise_at_every_length_and_offset() {
        let buf = seeded_bytes(17, 64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn word_at_a_time_matches_bytewise_on_seeded_buffers() {
        for (seed, len) in [(1u64, 1usize), (2, 7), (3, 4097), (4, 65_535), (5, 1 << 20)] {
            let buf = seeded_bytes(seed, len);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed} len {len}");
        }
    }
}
