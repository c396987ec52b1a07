//! CRC32C (Castagnoli) checksums — the EDAC/error-handling system tax
//! (Table 3) and the integrity check used by the storage and RPC substrates.

/// The reflected CRC32C polynomial.
const POLY: u32 = 0x82f6_3b78;

/// Byte-indexed lookup table, built at compile time. The slicing-by-8
/// tables below are derived from it, and both the slicing-by-8 tail loop and
/// the hardware path's recombination tables use it directly.
pub(crate) const TABLE: [u32; 256] = build_table();

/// Slicing-by-8 tables: `TABLES[k][b]` is the CRC contribution of byte `b`
/// advanced `k` further byte positions through the polynomial.
/// `TABLES[0]` equals [`TABLE`].
const TABLES: [[u32; 256]; 8] = build_slicing_tables();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = crc;
        i += 1;
    }
    table
}

const fn build_slicing_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = TABLE;
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

/// Computes the CRC32C of `data`.
///
/// # Examples
///
/// ```
/// assert_eq!(hsdp_taxes::crc::crc32c(b"123456789"), 0xe306_9283);
/// ```
#[must_use]
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends a CRC32C over more data (streaming use) — the dispatched entry.
///
/// Runs the best implementation the host supports, resolved once per
/// process: the hardware `crc32` instruction path in [`crate::simd::crc`]
/// (SSE4.2 / aarch64 CRC, 3-way stream-interleaved) when detected, else the
/// scalar slicing-by-8 path. All paths are bit-identical for every input;
/// set `HSDP_FORCE_SCALAR=1` to pin the scalar path
/// (see [`crate::dispatch`]).
#[must_use]
#[inline]
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    crate::simd::crc::crc32c_append(crc, data)
}

/// Extends a CRC32C over more data — the scalar tier, used on hosts without
/// the `crc32` instruction and under `HSDP_FORCE_SCALAR=1`.
///
/// Slicing-by-8 (Kounavis & Berry): eight table lookups fold eight input
/// bytes per step instead of one, with the byte-table loop mopping up the
/// sub-8-byte tail. `tests/simd_equivalence.rs` checks it, and the hardware
/// path, against a byte-at-a-time oracle.
#[must_use]
pub fn crc32c_append_slicing8(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        crc ^= u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(crc & 0xff) as usize]
            ^ TABLES[6][((crc >> 8) & 0xff) as usize]
            ^ TABLES[5][((crc >> 16) & 0xff) as usize]
            ^ TABLES[4][(crc >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// An incremental CRC32C hasher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Crc32c {
    crc: u32,
}

impl Crc32c {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs more input.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.crc = crc32c_append(self.crc, data);
    }

    /// The checksum so far.
    #[must_use]
    pub fn finalize(self) -> u32 {
        self.crc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Cross-checked against a bitwise reference implementation.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        assert_eq!(
            crc32c(b"The quick brown fox jumps over the lazy dog"),
            0x2262_0404
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 256) as u8).collect();
        let oneshot = crc32c(&data);
        for chunk in [1usize, 3, 17, 100, 999] {
            let mut h = Crc32c::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), oneshot, "chunk {chunk}");
        }
    }

    #[test]
    fn slicing_table_zero_is_reference_table() {
        assert_eq!(TABLES[0], TABLE);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"hello world, this is a checksum test".to_vec();
        let original = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), original, "flip {byte}:{bit}");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
