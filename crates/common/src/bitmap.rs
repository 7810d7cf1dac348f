//! Compact validity bitmap used by [`crate::ColumnVector`].

/// A bit-packed boolean vector. Bit `i` set means "valid (non-NULL)" when
/// used as a validity mask, or simply `true` when used as a selection mask.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Bitmap::default()
    }

    /// Bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![fill; nwords],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`. Panics if out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `value`. Panics if out of range.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bitmap index {i} out of range {}", self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let i = self.len - 1;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Append all bits of `other`.
    pub fn extend_from(&mut self, other: &Bitmap) {
        // Simple per-bit loop; bitmap appends are not on the hot path
        // (column data dominates).
        for i in 0..other.len {
            self.push(other.get(i));
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether any bit in `range` is set, a word at a time. The range is
    /// clipped to the bitmap's length; an empty (or wholly out-of-range)
    /// range holds no set bit.
    #[inline]
    pub fn any_in(&self, range: std::ops::Range<usize>) -> bool {
        let end = range.end.min(self.len);
        if range.start >= end {
            return false;
        }
        let (first, last) = (range.start / 64, (end - 1) / 64);
        let head = u64::MAX << (range.start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            return self.words[first] & head & tail != 0;
        }
        self.words[first] & head != 0
            || self.words[first + 1..last].iter().any(|w| *w != 0)
            || self.words[last] & tail != 0
    }

    /// True iff every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_ones() == self.len
    }

    /// In-place bitwise AND with another bitmap of the same length.
    pub fn and_with(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch in AND");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// Iterator over the indices of set bits, in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * 64;
            OnesIter { word: w, base }
        })
    }

    /// Clear any bits beyond `len` in the last word so that `count_ones`
    /// and word-wise operations stay correct.
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

struct OnesIter {
    word: u64,
    base: usize,
}

impl Iterator for OnesIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl Extend<bool> for Bitmap {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bm = Bitmap::new();
        bm.extend(iter);
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_and_counts() {
        let bm = Bitmap::filled(100, true);
        assert_eq!(bm.len(), 100);
        assert_eq!(bm.count_ones(), 100);
        assert!(bm.all_set());
        let bm = Bitmap::filled(100, false);
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn push_get_set() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 130);
        for i in 0..130 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        bm.set(0, false);
        assert!(!bm.get(0));
    }

    #[test]
    fn and_with_intersects() {
        let a: Bitmap = (0..70).map(|i| i % 2 == 0).collect();
        let b: Bitmap = (0..70).map(|i| i % 3 == 0).collect();
        let mut c = a.clone();
        c.and_with(&b);
        for i in 0..70 {
            assert_eq!(c.get(i), i % 6 == 0);
        }
    }

    #[test]
    fn any_in_matches_a_bit_by_bit_probe() {
        let empty = Bitmap::filled(300, false);
        assert!(!empty.any_in(0..300));
        for bit in [0usize, 1, 63, 64, 65, 127, 128, 191, 192, 299] {
            let mut bm = Bitmap::filled(300, false);
            bm.set(bit, true);
            for start in [0usize, 1, 5, 63, 64, 65, 100, 128, 190, 256, 299, 300, 400] {
                for end in [
                    0usize, 1, 2, 63, 64, 65, 66, 129, 192, 193, 299, 300, 301, 1000,
                ] {
                    let expect = (start..end.min(300)).any(|i| bm.get(i));
                    assert_eq!(bm.any_in(start..end), expect, "bit {bit} in {start}..{end}");
                }
            }
        }
        // Empty and reversed ranges, and the empty bitmap.
        let full = Bitmap::filled(70, true);
        assert!(!full.any_in(10..10));
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 20..10;
        assert!(!full.any_in(reversed));
        assert!(!full.any_in(70..200));
        assert!(full.any_in(69..200));
        assert!(!Bitmap::new().any_in(0..64));
    }

    #[test]
    fn iter_ones_matches_get() {
        let bm: Bitmap = (0..200).map(|i| i % 7 == 1).collect();
        let ones: Vec<_> = bm.iter_ones().collect();
        let expected: Vec<_> = (0..200).filter(|i| i % 7 == 1).collect();
        assert_eq!(ones, expected);
    }

    #[test]
    fn extend_from_appends() {
        let mut a: Bitmap = (0..3).map(|i| i == 1).collect();
        let b: Bitmap = (0..67).map(|i| i % 2 == 0).collect();
        a.extend_from(&b);
        assert_eq!(a.len(), 70);
        assert!(a.get(1));
        for i in 0..67 {
            assert_eq!(a.get(3 + i), i % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::filled(3, true).get(3);
    }

    /// Deterministic pseudo-random bits (SplitMix64) for the randomized
    /// roundtrip tests below; hylite-common has no dependencies, so a
    /// tiny inline generator stands in for an RNG crate.
    fn pseudo_bits(seed: u64, len: usize) -> Vec<bool> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                (z ^ (z >> 31)) & 1 == 1
            })
            .collect()
    }

    #[test]
    fn prop_roundtrip() {
        for (case, len) in [0, 1, 63, 64, 65, 130, 499].into_iter().enumerate() {
            let bits = pseudo_bits(case as u64, len);
            let bm: Bitmap = bits.iter().copied().collect();
            assert_eq!(bm.len(), bits.len());
            for (i, &b) in bits.iter().enumerate() {
                assert_eq!(bm.get(i), b);
            }
            assert_eq!(bm.count_ones(), bits.iter().filter(|&&b| b).count());
            let ones: Vec<usize> = bm.iter_ones().collect();
            let expect: Vec<usize> = bits
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(ones, expect);
        }
    }

    #[test]
    fn prop_and_semantics() {
        for (case, len) in [0, 1, 64, 65, 300].into_iter().enumerate() {
            let xs = pseudo_bits(100 + case as u64, len);
            let ys = pseudo_bits(200 + case as u64, len);
            let a: Bitmap = xs.iter().copied().collect();
            let b: Bitmap = ys.iter().copied().collect();
            let mut c = a.clone();
            c.and_with(&b);
            for i in 0..len {
                assert_eq!(c.get(i), xs[i] && ys[i]);
            }
        }
    }
}
