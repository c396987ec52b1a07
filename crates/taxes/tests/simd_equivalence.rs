//! Differential suite for the CRC32C tiers: the hardware `crc32` path and
//! the slicing-by-8 scalar tier must both equal a byte-at-a-time oracle for
//! every input — every length up to 256 bytes at each alignment of the
//! 8-byte loop, random lengths up to 4 KiB at unaligned starting offsets,
//! lengths straddling the hardware path's 3-way interleave, and arbitrary
//! seed CRCs.
//!
//! The hardware path is taken from the [`hsdp_taxes::simd`] resolver
//! directly, so the comparison is real even if the dispatched entry point
//! were pinned elsewhere. On hosts without the instruction (or under
//! `HSDP_FORCE_SCALAR=1`) the resolver returns `None` and the hardware tests
//! log a skip; CI runs the suite in both modes.

use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::crc::{crc32c_append, crc32c_append_slicing8};
use hsdp_taxes::simd;

const MAX_LEN: usize = 4096;
/// Bytes per leg of the hardware path's 3-way interleave.
const HW_BLOCK: usize = 2048;

/// The reflected CRC32C (Castagnoli) polynomial.
const POLY: u32 = 0x82f6_3b78;

/// The oracle's byte-indexed table, built here from the polynomial so that
/// no table of the code under test feeds it.
const TABLE: [u32; 256] = {
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
};

/// The byte-at-a-time table-lookup CRC32C: the oracle both shipped tiers
/// are checked against.
fn crc32c_append_bytewise(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &byte in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

/// Random-length buffer with a little headroom so tests can slice it at
/// unaligned starting offsets without changing the length distribution.
fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..=max_len);
    (0..len + 16).map(|_| rng.random()).collect()
}

/// A deterministic xorshift stream, so the table-tier tests need no RNG.
fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

#[test]
fn slicing_matches_bytewise_oracle_all_lengths() {
    // A cheap deterministic byte stream; covers every length 0..256 and
    // every alignment of the 8-byte slicing loop.
    let data: Vec<u8> = (0..256u32)
        .map(|i| (i.wrapping_mul(167) >> 3) as u8)
        .collect();
    for len in 0..=256 {
        for start in [0usize, 1, 3, 7] {
            if start + len > data.len() {
                continue;
            }
            let slice = &data[start..start + len];
            let oracle = crc32c_append_bytewise(0, slice);
            assert_eq!(
                crc32c_append_slicing8(0, slice),
                oracle,
                "len {len} start {start}"
            );
            // The dispatched entry (whatever path it resolved) agrees too.
            assert_eq!(crc32c_append(0, slice), oracle, "len {len} start {start}");
        }
    }
}

#[test]
fn slicing_matches_bytewise_oracle_random_buffers() {
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    for round in 0..64 {
        let len = (next() % 4096) as usize;
        let buf: Vec<u8> = (0..len).map(|_| (next() >> 24) as u8).collect();
        let seed_crc = (next() & 0xffff_ffff) as u32;
        let oracle = crc32c_append_bytewise(seed_crc, &buf);
        assert_eq!(
            crc32c_append_slicing8(seed_crc, &buf),
            oracle,
            "round {round} len {len}"
        );
        assert_eq!(
            crc32c_append(seed_crc, &buf),
            oracle,
            "round {round} len {len}"
        );
    }
}

#[test]
fn hw_crc_matches_oracles_across_the_interleave_threshold() {
    let Some(hw) = simd::crc::crc32c_fn() else {
        eprintln!("skipping: no hardware CRC32C on this host");
        return;
    };
    // Lengths crossing every regime: sub-word, word, one/two/three blocks,
    // the 3-way threshold, and beyond.
    let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
    let buf: Vec<u8> = (0..4 * 3 * HW_BLOCK + 61)
        .map(|_| (next() >> 24) as u8)
        .collect();
    for len in [
        0usize,
        1,
        7,
        8,
        9,
        63,
        HW_BLOCK - 1,
        HW_BLOCK,
        3 * HW_BLOCK - 1,
        3 * HW_BLOCK,
        3 * HW_BLOCK + 1,
        6 * HW_BLOCK + 13,
        buf.len(),
    ] {
        for start in [0usize, 1, 3, 5] {
            if start + len > buf.len() {
                continue;
            }
            let slice = &buf[start..start + len];
            let seed = (next() & 0xffff_ffff) as u32;
            let expect = crc32c_append_bytewise(seed, slice);
            assert_eq!(hw(seed, slice), expect, "len {len} start {start}");
            assert_eq!(crc32c_append_slicing8(seed, slice), expect);
        }
    }
}

#[test]
fn hw_crc32c_matches_scalar_over_random_lengths_and_offsets() {
    let Some(hw) = simd::crc::crc32c_fn() else {
        eprintln!("skipping: no hardware CRC32C on this host");
        return;
    };
    let mut rng = StdRng::seed_from_u64(0xC4C1);
    for case in 0..400 {
        let buf = random_bytes(&mut rng, MAX_LEN);
        let off = rng.random_range(0..=8usize.min(buf.len()));
        let data = &buf[off..];
        let seed: u32 = rng.random();
        let want = crc32c_append_bytewise(seed, data);
        assert_eq!(
            hw(seed, data),
            want,
            "case {case} len {} off {off}",
            data.len()
        );
        assert_eq!(
            crc32c_append_slicing8(seed, data),
            want,
            "slicing8 diverged from the oracle, case {case}"
        );
    }
}

#[test]
fn hw_crc32c_streams_split_points_like_scalar() {
    let Some(hw) = simd::crc::crc32c_fn() else {
        eprintln!("skipping: no hardware CRC32C on this host");
        return;
    };
    // Appending in two chunks must equal one pass, at every split of a
    // buffer spanning the interleave block boundary.
    let mut rng = StdRng::seed_from_u64(0xC4C2);
    let buf: Vec<u8> = (0..MAX_LEN).map(|_| rng.random()).collect();
    let whole = hw(0, &buf);
    for split in (0..buf.len()).step_by(97) {
        assert_eq!(
            hw(hw(0, &buf[..split]), &buf[split..]),
            whole,
            "split {split}"
        );
    }
}
