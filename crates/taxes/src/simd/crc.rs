//! Hardware CRC32C: the SSE4.2 `crc32` instruction (and the aarch64 `crc32c`
//! extension), 3-way stream-interleaved.
//!
//! The `crc32` instruction retires one 8-byte step per cycle but has ~3
//! cycles of latency, so a single dependent chain leaves two thirds of the
//! unit idle. The fast path therefore splits the input into three
//! independent `BLOCK`-byte legs, drives all three chains in one
//! interleaved loop, and then *recombines* the three partial CRCs.
//!
//! Recombination uses the carry-less algebra the PCLMUL folding constants
//! come from: advancing a CRC state across `N` zero bytes is a GF(2)-linear
//! operator, so it is precomputed — at compile time — as a 32x32 bit-matrix
//! raised to the `N`th power and materialized as four 256-entry tables
//! (`SHIFT_BLOCK`). One application costs four table lookups, amortized
//! over 2 KiB of input per leg.
//!
//! Everything here is byte-identical to [`crate::crc::crc32c_append_slicing8`]
//! for every input; `tests/simd_equivalence.rs` checks both against a
//! bytewise oracle.

use crate::crc::TABLE;

/// Bytes per interleaved leg. A power of two so the shift operator is built
/// by repeated squaring; 2 KiB keeps all three legs within one 4 KiB page
/// pair while giving the recombination plenty of bytes to amortize over.
const BLOCK: usize = 2048;

/// The advance-by-[`BLOCK`]-zero-bytes operator as four byte-indexed tables:
/// `SHIFT_BLOCK[k][b]` is the operator applied to `b << (8k)`. XORing the
/// four lookups applies it to a full 32-bit state.
const SHIFT_BLOCK: [[u32; 256]; 4] = build_shift_tables();

/// Applies the one-zero-byte CRC step matrix `mat` to `vec`.
const fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// Squares a GF(2) 32x32 matrix (composition with itself).
const fn gf2_matrix_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut sq = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        sq[j] = gf2_matrix_times(mat, mat[j]);
        j += 1;
    }
    sq
}

const fn build_shift_tables() -> [[u32; 256]; 4] {
    // Column j of the one-zero-byte operator: advance the state `1 << j` by
    // one zero byte, exactly the table loop's step with `byte = 0`.
    let mut mat = [0u32; 32];
    let mut j = 0;
    while j < 32 {
        let c = 1u32 << j;
        mat[j] = (c >> 8) ^ TABLE[(c & 0xff) as usize];
        j += 1;
    }
    // Square log2(BLOCK) times: the operator for BLOCK zero bytes.
    let mut n = BLOCK;
    while n > 1 {
        mat = gf2_matrix_square(&mat);
        n >>= 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = gf2_matrix_times(&mat, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Advances a raw (pre-final-XOR) CRC state across [`BLOCK`] zero bytes.
#[inline]
fn shift_block(crc: u32) -> u32 {
    SHIFT_BLOCK[0][(crc & 0xff) as usize]
        ^ SHIFT_BLOCK[1][((crc >> 8) & 0xff) as usize]
        ^ SHIFT_BLOCK[2][((crc >> 16) & 0xff) as usize]
        ^ SHIFT_BLOCK[3][(crc >> 24) as usize]
}

/// True when the host has the CRC instruction [`crc32c_hw`] is compiled
/// for and the scalar tier is not forced: read from the features
/// [`crate::dispatch::CpuFeatures::get`] detects once per process.
#[inline]
fn hardware_crc() -> bool {
    let features = crate::dispatch::CpuFeatures::get();
    #[cfg(target_arch = "x86_64")]
    return features.sse42;
    #[cfg(target_arch = "aarch64")]
    return features.aarch64_crc;
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = features;
        false
    }
}

/// Extends `crc` over `data` on the best tier the host supports: the body
/// of [`crate::crc::crc32c_append`]. Inlined into its callers, an update
/// costs one test of the cached features and one call into the kernel,
/// with no function pointer or wrapper between them.
#[inline]
pub(crate) fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if hardware_crc() {
        // SAFETY: `hardware_crc` is true only when `CpuFeatures::get`
        // confirmed the CRC instruction set on this CPU, which is the sole
        // precondition of the target_feature function.
        return unsafe { crc32c_hw(crc, data) };
    }
    crate::crc::crc32c_append_slicing8(crc, data)
}

/// The dispatched entry ([`crate::crc::crc32c_append`]) when it runs the
/// hardware tier, or `None` when the host has no fast path (or scalar is
/// forced): lets the equivalence tests drive the exact path production uses.
// audit: allow(reach, simd_equivalence.rs and this module's tests drive the hardware tier through it)
pub fn crc32c_fn() -> Option<fn(u32, &[u8]) -> u32> {
    hardware_crc().then_some(crate::crc::crc32c_append as fn(u32, &[u8]) -> u32)
}

/// Hardware CRC32C over `data`, extending `crc` — x86-64 SSE4.2 path.
///
/// Handles empty, short, and unaligned inputs: the 3-way loop only engages
/// at ≥ 3x[`BLOCK`] remaining bytes and uses unaligned loads; everything
/// else funnels through the single-stream word/byte loops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};

    let mut state = u64::from(!crc);
    let mut rest = data;

    // Three interleaved legs: leg 0 continues the running state, legs 1 and
    // 2 start from zero and are recombined via the shift operator.
    while rest.len() >= 3 * BLOCK {
        let ptr = rest.as_ptr();
        let mut leg0 = state;
        let mut leg1 = 0u64;
        let mut leg2 = 0u64;
        let mut offset = 0;
        while offset < BLOCK {
            // SAFETY: `offset + 8 <= BLOCK` within this loop and
            // `rest.len() >= 3 * BLOCK`, so all three unaligned u64 reads
            // end at most at `ptr + 3 * BLOCK`, inside `rest`.
            let (w0, w1, w2) = unsafe {
                (
                    ptr.add(offset).cast::<u64>().read_unaligned(),
                    ptr.add(BLOCK + offset).cast::<u64>().read_unaligned(),
                    ptr.add(2 * BLOCK + offset).cast::<u64>().read_unaligned(),
                )
            };
            leg0 = _mm_crc32_u64(leg0, w0);
            leg1 = _mm_crc32_u64(leg1, w1);
            leg2 = _mm_crc32_u64(leg2, w2);
            offset += 8;
        }
        // Processing A||B||C equals shift2B(crc(A)) ^ shiftB(crc(B)) ^ crc(C)
        // because the byte step is affine over GF(2).
        state = u64::from(shift_block(shift_block(leg0 as u32)) ^ shift_block(leg1 as u32)) ^ leg2;
        rest = &rest[3 * BLOCK..];
    }

    // Single-stream word loop for the mid-size tail.
    let mut words = rest.chunks_exact(8);
    for word in &mut words {
        // audit: allow(panic, chunks_exact(8) yields exactly 8-byte chunks)
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        state = _mm_crc32_u64(state, w);
    }
    let mut crc32 = state as u32;
    for &byte in words.remainder() {
        crc32 = _mm_crc32_u8(crc32, byte);
    }
    !crc32
}

/// Hardware CRC32C over `data`, extending `crc` — aarch64 CRC-extension
/// path (single stream: the `crc32cd` chain already saturates small cores,
/// and correctness, not peak, is what CI's arm runners need).
#[cfg(target_arch = "aarch64")]
#[target_feature(enable = "crc")]
fn crc32c_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::aarch64::{__crc32cb, __crc32cd};

    let mut state = !crc;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        // audit: allow(panic, chunks_exact(8) yields exactly 8-byte chunks)
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        state = __crc32cd(state, w);
    }
    for &byte in words.remainder() {
        state = __crc32cb(state, byte);
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The const shift tables must agree with literally advancing the raw
    /// state one zero byte at a time.
    #[test]
    fn shift_block_matches_byte_at_a_time_zero_advance() {
        for seed in [0u32, 1, 0xdead_beef, 0xffff_ffff, 0x1234_5678] {
            let mut slow = seed;
            for _ in 0..BLOCK {
                slow = (slow >> 8) ^ TABLE[(slow & 0xff) as usize];
            }
            assert_eq!(shift_block(seed), slow, "seed {seed:#x}");
        }
    }

    /// The shift operator is linear: shift(a ^ b) == shift(a) ^ shift(b).
    #[test]
    fn shift_block_is_linear() {
        let (a, b) = (0x0bad_f00du32, 0xcafe_babeu32);
        assert_eq!(shift_block(a ^ b), shift_block(a) ^ shift_block(b));
        assert_eq!(shift_block(0), 0);
    }

    #[test]
    fn hw_crc_streaming_split_points_agree() {
        let Some(hw) = crc32c_fn() else {
            return;
        };
        let data: Vec<u8> = (0..3 * 3 * BLOCK).map(|i| (i * 131 % 251) as u8).collect();
        let oneshot = hw(0, &data);
        for split in [1usize, 8, 100, BLOCK, 3 * BLOCK + 7, data.len() - 1] {
            let partial = hw(0, &data[..split]);
            assert_eq!(hw(partial, &data[split..]), oneshot, "split {split}");
        }
    }
}
