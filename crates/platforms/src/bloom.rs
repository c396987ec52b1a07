//! Bloom filters for SSTable key membership — the standard LSM read
//! optimization BigTable uses to avoid touching SSTables that cannot
//! contain a key.
//!
//! [`Bloom`] is a cache-line-blocked filter: every key touches exactly one
//! 64-byte block (eight words), so a probe costs one cache line instead of
//! up to seven scattered lines, the block count is a power of two so block
//! selection is a mask instead of a `%` division, and the hash consumes the
//! key eight bytes at a time.

/// Words per block: 8 x 64 bits = one 64-byte cache line.
const BLOCK_WORDS: usize = 8;
/// Bits per block.
const BLOCK_BITS: usize = BLOCK_WORDS * 64;
/// Bits budgeted per expected key (~1% false positives unblocked).
const BITS_PER_KEY: usize = 10;
/// Probes per key.
const HASHES: u32 = 7;

/// A cache-line-blocked Bloom filter over byte-string keys.
///
/// Sizing invariant: the table is a power-of-two number of 512-bit blocks
/// holding at least [`BITS_PER_KEY`] bits per expected key — exactly
/// `bits / 64` words, no slack word, no `%` on the probe path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    words: Vec<u64>,
    block_mask: u64,
    entries: usize,
}

impl Bloom {
    /// Builds a filter sized for `expected` entries at roughly 1% false
    /// positives (10 bits/key, 7 probes within one 64-byte block).
    #[must_use]
    pub fn new(expected: usize) -> Self {
        let bit_count = (expected.max(1) * BITS_PER_KEY)
            .next_power_of_two()
            .max(BLOCK_BITS);
        let blocks = bit_count / BLOCK_BITS;
        debug_assert!(blocks.is_power_of_two());
        Bloom {
            words: vec![0u64; blocks * BLOCK_WORDS],
            block_mask: blocks as u64 - 1,
            entries: 0,
        }
    }

    /// Word-at-a-time 128-bit-state hash: eight key bytes per round, with
    /// an FNV-style tail for the last partial word. Returns `(h1, h2)` —
    /// `h1` picks the block, `h2` supplies the seven 9-bit in-block probes.
    #[inline]
    fn hash_pair(key: &[u8]) -> (u64, u64) {
        let mut h1: u64 = 0xcbf2_9ce4_8422_2325;
        let mut h2: u64 = 0x6c62_272e_07bb_0142;
        let mut chunks = key.chunks_exact(8);
        for chunk in &mut chunks {
            // audit: allow(panic, chunks_exact(8) yields exactly 8-byte chunks)
            let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            h1 = (h1 ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(29);
            h2 = (h2 ^ w.rotate_left(32)).wrapping_mul(0x3f4d_72f9_8ac1_76bd);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut w = 0u64;
            for (i, &b) in tail.iter().enumerate() {
                w |= u64::from(b) << (8 * i);
            }
            // Length in the top byte so "ab" and "ab\0" diverge.
            w |= (tail.len() as u64) << 56;
            h1 = (h1 ^ w).wrapping_mul(0x100_0000_01b3).rotate_left(29);
            h2 = (h2 ^ w.rotate_left(32)).wrapping_mul(0x3f4d_72f9_8ac1_76bd);
        }
        // Finalize so short keys still spread across blocks.
        h1 ^= h1 >> 33;
        h1 = h1.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h1 ^= h1 >> 29;
        h2 ^= key.len() as u64;
        h2 ^= h2 >> 31;
        h2 = h2.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h2 ^= h2 >> 27;
        (h1, h2)
    }

    /// The base word index of the block `h1` selects.
    #[inline]
    fn block_base(&self, h1: u64) -> usize {
        ((h1 & self.block_mask) as usize) * BLOCK_WORDS
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        let (h1, h2) = Self::hash_pair(key);
        let base = self.block_base(h1);
        for i in 0..HASHES {
            // Seven disjoint 9-bit slices of h2: word index (3 bits) plus
            // bit-in-word (6 bits), all mask arithmetic.
            let bits = (h2 >> (9 * i)) & 0x1ff;
            self.words[base + (bits >> 6) as usize] |= 1u64 << (bits & 63);
        }
        self.entries += 1;
    }

    /// True if the key *may* be present (no false negatives).
    #[must_use]
    pub fn may_contain(&self, key: &[u8]) -> bool {
        let (h1, h2) = Self::hash_pair(key);
        let base = self.block_base(h1);
        Self::block_probe_scalar(&self.words[base..base + BLOCK_WORDS], h2)
    }

    /// Block probe: seven sequential word tests with early exit. `block` is
    /// one 8-word (64-byte) filter block. An AVX2 whole-block probe was
    /// measured against this loop and lost (see DESIGN.md, "Kernel round
    /// 3"): the probe positions arrive serialized in `h2`, the block is
    /// cache-resident, and the loop exits on the first missing bit — the
    /// common case for the absent keys a filter exists to reject.
    fn block_probe_scalar(block: &[u64], h2: u64) -> bool {
        (0..HASHES).all(|i| {
            let bits = (h2 >> (9 * i)) & 0x1ff;
            block[(bits >> 6) as usize] & (1u64 << (bits & 63)) != 0
        })
    }

    /// Number of inserted keys.
    #[must_use]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Size of the filter in bytes.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Number of 64-byte blocks (always a power of two).
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.words.len() / BLOCK_WORDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bloom = Bloom::new(1000);
        for i in 0..1000u32 {
            bloom.insert(format!("key-{i}").as_bytes());
        }
        for i in 0..1000u32 {
            assert!(bloom.may_contain(format!("key-{i}").as_bytes()), "key-{i}");
        }
        assert_eq!(bloom.entries(), 1000);
    }

    #[test]
    fn false_positive_rate_is_low() {
        let mut bloom = Bloom::new(10_000);
        for i in 0..10_000u32 {
            bloom.insert(format!("present-{i}").as_bytes());
        }
        let mut false_positives = 0;
        for i in 0..10_000u32 {
            if bloom.may_contain(format!("absent-{i}").as_bytes()) {
                false_positives += 1;
            }
        }
        // 10+ bits/key with 7 in-block probes: ~1-2%; allow 3%.
        assert!(false_positives < 300, "fp {false_positives}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bloom = Bloom::new(10);
        assert!(!bloom.may_contain(b"anything"));
        assert!(bloom.byte_size() > 0);
    }

    /// Satellite invariant: sizing is exact. The old `bit_count / 64 + 1`
    /// wasted a word and made the table a non-power-of-two, forcing the
    /// slow `%` probe path; the blocked filter must never regress to that.
    #[test]
    fn sizing_is_exact_power_of_two_blocks() {
        for expected in [0usize, 1, 3, 7, 51, 64, 1000, 10_000, 123_457] {
            let bloom = Bloom::new(expected);
            assert!(
                bloom.block_count().is_power_of_two(),
                "expected {expected}: {} blocks",
                bloom.block_count()
            );
            // Exactly block_count * 64 bytes — no slack word.
            assert_eq!(bloom.byte_size(), bloom.block_count() * BLOCK_BITS / 8);
            // At least the bits-per-key budget.
            assert!(bloom.byte_size() * 8 >= expected.max(1) * BITS_PER_KEY);
            // Never more than 2x the budget (next_power_of_two), floored at
            // one block.
            assert!(bloom.byte_size() * 8 <= (expected.max(1) * BITS_PER_KEY * 2).max(BLOCK_BITS));
        }
    }

    #[test]
    fn admits_every_key_shape() {
        // No false negatives whatever the key shapes (empty, short,
        // word-boundary, long).
        let keys: Vec<Vec<u8>> = (0..512u32)
            .map(|i| {
                let len = (i as usize * 7) % 41;
                (0..len)
                    .map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8))
                    .collect()
            })
            .collect();
        let mut bloom = Bloom::new(keys.len());
        for k in &keys {
            bloom.insert(k);
        }
        for k in &keys {
            assert!(bloom.may_contain(k));
        }
    }
}
