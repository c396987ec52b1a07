//! Block compression — the (de)compression datacenter tax (Table 2).
//!
//! Implements an LZ77-family byte-oriented block format in the spirit of the
//! fast datacenter codecs (Snappy/LZ4) the paper's platforms run on their
//! critical paths: a greedy hash-table match finder over a 64 KiB window,
//! literal runs and back-reference copies.
//!
//! [`compress`] extends matches a 64-bit word at a time and skips ahead over
//! incompressible runs (LZ4-style acceleration); [`compressed_len`] runs the
//! same match finder and only counts the bytes, for the BigTable and
//! BigQuery blocks whose stream nothing reads; [`decompress`] batch-copies
//! literal runs and back-references with overlap-safe chunked copies. The
//! encoder and the decoder are the codec's only production implementations:
//! AVX2 tiers of both were measured on the blocks a fleet run compresses,
//! did not pay for themselves, and were deleted (DESIGN.md, "One
//! implementation per kernel"). The original byte-at-a-time encoder stays
//! private as the fallback for inputs the fast path's u32 hash table cannot
//! address (4 GiB and up); the byte-at-a-time decoder lives in this
//! module's tests as the oracle every encoder x decoder pairing is checked
//! against.
//!
//! ## Stream layout
//!
//! ```text
//! magic "HZ" | version 0x01 | varint(uncompressed_len) | ops...
//! op: tag byte
//!     bit 0 = 0: literal run — upper 7 bits hold len-1 if < 127,
//!                else 0x7f<<1 marker followed by varint(len)
//!     bit 0 = 1: copy — upper 7 bits hold len-MIN_MATCH if < 127,
//!                else marker followed by varint(len), then varint(offset)
//! ```
//!
//! # Examples
//!
//! ```
//! use hsdp_taxes::compress::{compress, decompress};
//!
//! let data = b"abcabcabcabcabcabc hyperscale hyperscale hyperscale".to_vec();
//! let packed = compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(decompress(&packed)?, data);
//! # Ok::<(), hsdp_taxes::error::CompressError>(())
//! ```

use crate::error::CompressError;
use crate::varint::{decode_varint, encode_varint, varint_len};

/// Stream magic bytes.
const MAGIC: [u8; 2] = *b"HZ";
/// Format version.
const VERSION: u8 = 1;
/// Minimum back-reference length worth encoding.
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (64 KiB window).
const MAX_OFFSET: usize = 1 << 16;
/// log2 of the match-finder hash table size.
const HASH_BITS: u32 = 14;
/// After `2^SKIP_TRIGGER` consecutive match misses, the probe stride grows
/// by one — incompressible runs are crossed in sub-linear probe counts.
const SKIP_TRIGGER: u32 = 5;
/// Cap on the decoder's up-front allocation: the header's declared length
/// is untrusted, so larger outputs grow amortized instead of being
/// reserved blindly.
const MAX_PREALLOC: usize = 1 << 20;

#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Loads a little-endian u32; the caller guarantees `pos + 4 <= data.len()`.
#[inline]
fn load_u32(data: &[u8], pos: usize) -> u32 {
    // audit: allow(panic, caller guarantees pos + 4 <= data.len())
    u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4-byte load"))
}

/// Loads a little-endian u64; the caller guarantees `pos + 8 <= data.len()`.
#[inline]
fn load_u64(data: &[u8], pos: usize) -> u64 {
    // audit: allow(panic, caller guarantees pos + 8 <= data.len())
    u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8-byte load"))
}

/// Length of the common prefix of `data[a..]` and `data[b..]` (`a < b`),
/// bounded by the end of the buffer. Compares eight bytes per step and uses
/// the XOR's trailing zeros to pinpoint the first differing byte.
#[inline]
fn common_prefix_len(data: &[u8], a: usize, b: usize) -> usize {
    debug_assert!(a < b);
    let start = b;
    let (mut a, mut b) = (a, b);
    while b + 8 <= data.len() {
        let diff = load_u64(data, a) ^ load_u64(data, b);
        if diff != 0 {
            return b - start + (diff.trailing_zeros() / 8) as usize;
        }
        a += 8;
        b += 8;
    }
    while b < data.len() && data[a] == data[b] {
        a += 1;
        b += 1;
    }
    b - start
}

/// Where an encoder's stream goes: [`compress`] writes it into a `Vec`,
/// [`compressed_len`] only counts its bytes.
trait Sink {
    fn push(&mut self, byte: u8);
    fn put_slice(&mut self, bytes: &[u8]);
    fn put_varint(&mut self, value: u64);
}

impl Sink for Vec<u8> {
    #[inline]
    fn push(&mut self, byte: u8) {
        Vec::push(self, byte);
    }

    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    #[inline]
    fn put_varint(&mut self, value: u64) {
        encode_varint(value, self);
    }
}

/// A sink that keeps only the length of what it is given.
struct ByteCount(usize);

impl Sink for ByteCount {
    #[inline]
    fn push(&mut self, _byte: u8) {
        self.0 += 1;
    }

    #[inline]
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    #[inline]
    fn put_varint(&mut self, value: u64) {
        self.0 += varint_len(value);
    }
}

#[inline]
fn emit_literals<S: Sink>(data: &[u8], out: &mut S) {
    if data.is_empty() {
        return;
    }
    let len = data.len();
    if len - 1 < 0x7f {
        out.push(((len - 1) as u8) << 1);
    } else {
        out.push(0x7f << 1);
        out.put_varint(len as u64);
    }
    out.put_slice(data);
}

#[inline]
fn emit_copy<S: Sink>(len: usize, offset: usize, out: &mut S) {
    debug_assert!(len >= MIN_MATCH && offset >= 1);
    if len - MIN_MATCH < 0x7f {
        out.push((((len - MIN_MATCH) as u8) << 1) | 1);
    } else {
        out.push((0x7f << 1) | 1);
        out.put_varint(len as u64);
    }
    out.put_varint(offset as u64);
}

/// Compresses `data` into a self-describing block.
///
/// Same greedy hash-table match finder as the byte-at-a-time original, but
/// match extension runs a 64-bit word at a time and consecutive misses grow
/// the probe stride, so incompressible stretches cost sub-linear probe
/// counts. Output is a pure function of `data`: the stream never depends
/// on the host.
#[must_use]
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    encode(data, &mut out);
    out
}

/// The length of [`compress`]`(data)`, from the same match decisions, with
/// no stream written: for callers that charge for compressed bytes they
/// never read.
#[must_use]
pub fn compressed_len(data: &[u8]) -> usize {
    let mut len = ByteCount(0);
    encode(data, &mut len);
    len.0
}

/// Writes the stream header and then `data`'s ops into `out`.
fn encode<S: Sink>(data: &[u8], out: &mut S) {
    out.put_slice(&MAGIC);
    out.push(VERSION);
    out.put_varint(data.len() as u64);
    // The fast table stores `pos + 1` as u32 (0 = empty) — half the
    // footprint of a usize table, so it stays cache-resident. Inputs too
    // large for that encoding take the reference match finder (same
    // format).
    if data.len() >= u32::MAX as usize {
        find_matches_reference(data, out);
    } else {
        find_matches(data, out);
    }
}

/// The match finder: emits `data` as literal runs and back-references.
fn find_matches<S: Sink>(data: &[u8], out: &mut S) {
    // A fixed-size boxed array (not a Vec): `hash4`'s range is provably in
    // bounds, so every probe indexes without a bounds check.
    let mut table: Box<[u32; 1 << HASH_BITS]> = Box::new([0u32; 1 << HASH_BITS]);
    let mut pos = 0;
    let mut literal_start = 0;
    let mut misses: u32 = 0;

    let total = data.len();
    // Main loop runs while a full word is loadable at `pos`; the sub-word
    // tail falls through to the u32 loop below.
    while pos + 8 <= total {
        let here = load_u64(data, pos);
        let h = hash4(here as u32);
        let candidate = (table[h] as usize).wrapping_sub(1);
        table[h] = (pos + 1) as u32;

        // One u64 XOR both verifies the 4-byte seed (low half) and begins
        // the extension (high half): `candidate + 8 <= pos + 8 <= total`.
        let diff = if candidate != usize::MAX && pos - candidate <= MAX_OFFSET {
            load_u64(data, candidate) ^ here
        } else {
            1 // low bit set: "seed mismatch"
        };
        if diff & 0xFFFF_FFFF != 0 {
            pos += 1 + (misses >> SKIP_TRIGGER) as usize;
            misses += 1;
            continue;
        }
        let len = if diff != 0 {
            (diff.trailing_zeros() / 8) as usize
        } else {
            8 + common_prefix_len(data, candidate + 8, pos + 8)
        };
        emit_literals(&data[literal_start..pos], out);
        emit_copy(len, pos - candidate, out);
        // LZ4-style: one table insert near the match end is enough — the
        // main loop re-seeds every probed position anyway.
        let end = pos + len;
        if end >= 2 && end + 2 <= total {
            table[hash4(load_u32(data, end - 2))] = (end - 1) as u32;
        }
        pos = end;
        literal_start = pos;
        misses = 0;
    }
    // Tail: fewer than 8 bytes left past `pos`; probe with u32 loads.
    while pos + MIN_MATCH <= total {
        let here = load_u32(data, pos);
        let h = hash4(here);
        let candidate = (table[h] as usize).wrapping_sub(1);
        table[h] = (pos + 1) as u32;

        if candidate != usize::MAX
            && pos - candidate <= MAX_OFFSET
            && load_u32(data, candidate) == here
        {
            let len = MIN_MATCH
                + data[pos + MIN_MATCH..]
                    .iter()
                    .zip(&data[candidate + MIN_MATCH..])
                    .take_while(|(x, y)| x == y)
                    .count();
            emit_literals(&data[literal_start..pos], out);
            emit_copy(len, pos - candidate, out);
            pos += len;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    emit_literals(&data[literal_start..], out);
}

/// The original byte-at-a-time match finder: [`compress`]'s fallback for
/// inputs its u32 hash table cannot address, and the second encoder the
/// tests pair with every decoder. Same stream format.
fn find_matches_reference<S: Sink>(data: &[u8], out: &mut S) {
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut pos = 0;
    let mut literal_start = 0;

    while pos + MIN_MATCH <= data.len() {
        let h = hash4(load_u32(data, pos));
        let candidate = table[h];
        table[h] = pos;

        let valid = candidate != usize::MAX
            && pos - candidate <= MAX_OFFSET
            && data[candidate..candidate + MIN_MATCH] == data[pos..pos + MIN_MATCH];
        if valid {
            // Extend the match as far as it goes, one byte at a time.
            let mut len = MIN_MATCH;
            while pos + len < data.len() && data[candidate + len] == data[pos + len] {
                len += 1;
            }
            emit_literals(&data[literal_start..pos], out);
            emit_copy(len, pos - candidate, out);
            let end = pos + len;
            let mut seed = pos + 1;
            while seed + MIN_MATCH <= end.min(data.len()) && seed < pos + 16 {
                table[hash4(load_u32(data, seed))] = seed;
                seed += 1;
            }
            pos = end;
            literal_start = pos;
        } else {
            pos += 1;
        }
    }
    emit_literals(&data[literal_start..], out);
}

/// Decodes one op length, shared by both length classes.
#[inline]
fn decode_op_len(
    input: &[u8],
    pos: &mut usize,
    short_len: usize,
    short_bias: usize,
) -> Result<usize, CompressError> {
    if short_len < 0x7f {
        return Ok(short_len + short_bias);
    }
    let (l, n) = decode_varint(&input[*pos..]).map_err(|_| CompressError::Truncated)?;
    *pos += n;
    usize::try_from(l).map_err(|_| CompressError::Truncated)
}

/// Decompresses a block produced by [`compress`].
///
/// Literal runs are batch-copied; back-references use overlap-safe chunked
/// copies that widen geometrically, so RLE-like runs cost O(log n) copy
/// calls instead of one push per byte. Every op is validated against the
/// header's declared length *before* producing output, so a corrupt or
/// malicious stream errors out early instead of over-allocating.
///
/// # Errors
///
/// Returns a [`CompressError`] on bad headers, truncated streams, invalid
/// back-references, or a length mismatch against the header.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, CompressError> {
    if input.len() < 3 || input[..2] != MAGIC || input[2] != VERSION {
        return Err(CompressError::BadHeader);
    }
    let mut pos = 3;
    let (expected_len, n) = decode_varint(&input[pos..]).map_err(|_| CompressError::Truncated)?;
    pos += n;
    let expected_len = usize::try_from(expected_len).map_err(|_| CompressError::BadHeader)?;

    // The declared length is untrusted input: cap the up-front reservation
    // and let genuine large outputs grow amortized.
    let mut out = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
    while pos < input.len() {
        let tag = input[pos];
        pos += 1;
        let short_len = (tag >> 1) as usize;
        if tag & 1 == 1 {
            let len = decode_op_len(input, &mut pos, short_len, MIN_MATCH)?;
            let (offset, n) = decode_varint(&input[pos..]).map_err(|_| CompressError::Truncated)?;
            pos += n;
            let offset = usize::try_from(offset).map_err(|_| CompressError::Truncated)?;
            if offset == 0 || offset > out.len() {
                return Err(CompressError::InvalidBackref { at: pos });
            }
            if len > expected_len - out.len() {
                // The copy would overflow the declared length: fail before
                // producing a byte (decompression-bomb guard).
                return Err(CompressError::LengthMismatch {
                    expected: expected_len,
                    actual: out.len().saturating_add(len),
                });
            }
            let start = out.len() - offset;
            if offset >= len {
                // Disjoint source and destination: one batch copy.
                out.extend_from_within(start..start + len);
            } else {
                // Overlapping (RLE-style) reference: the copied region
                // doubles in size every round.
                let mut copied = 0;
                while copied < len {
                    let chunk = (out.len() - start).min(len - copied);
                    out.extend_from_within(start..start + chunk);
                    copied += chunk;
                }
            }
        } else {
            let len = decode_op_len(input, &mut pos, short_len, 1)?;
            let literals = input.get(pos..pos + len).ok_or(CompressError::Truncated)?;
            if len > expected_len - out.len() {
                return Err(CompressError::LengthMismatch {
                    expected: expected_len,
                    actual: out.len().saturating_add(len),
                });
            }
            out.extend_from_slice(literals);
            pos += len;
        }
    }
    if out.len() != expected_len {
        return Err(CompressError::LengthMismatch {
            expected: expected_len,
            actual: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_rng::{Rng, StdRng};

    /// The original byte-at-a-time decoder: the oracle [`decompress`] is
    /// checked against. It validates in the same order and returns the same
    /// errors, but copies back-references one byte at a time.
    fn decompress_reference(input: &[u8]) -> Result<Vec<u8>, CompressError> {
        if input.len() < 3 || input[..2] != MAGIC || input[2] != VERSION {
            return Err(CompressError::BadHeader);
        }
        let mut pos = 3;
        let (expected_len, n) =
            decode_varint(&input[pos..]).map_err(|_| CompressError::Truncated)?;
        pos += n;
        let expected_len = usize::try_from(expected_len).map_err(|_| CompressError::BadHeader)?;

        let mut out = Vec::with_capacity(expected_len.min(MAX_PREALLOC));
        while pos < input.len() {
            let tag = input[pos];
            pos += 1;
            let short_len = (tag >> 1) as usize;
            if tag & 1 == 1 {
                let len = decode_op_len(input, &mut pos, short_len, MIN_MATCH)?;
                let (offset, n) =
                    decode_varint(&input[pos..]).map_err(|_| CompressError::Truncated)?;
                pos += n;
                let offset = usize::try_from(offset).map_err(|_| CompressError::Truncated)?;
                if offset == 0 || offset > out.len() {
                    return Err(CompressError::InvalidBackref { at: pos });
                }
                if len > expected_len - out.len() {
                    return Err(CompressError::LengthMismatch {
                        expected: expected_len,
                        actual: out.len().saturating_add(len),
                    });
                }
                // Byte-at-a-time copy: overlapping references (offset < len)
                // repeat recent output, which is how RLE-like runs encode.
                let start = out.len() - offset;
                for i in 0..len {
                    let byte = out[start + i];
                    out.push(byte);
                }
            } else {
                let len = decode_op_len(input, &mut pos, short_len, 1)?;
                let literals = input.get(pos..pos + len).ok_or(CompressError::Truncated)?;
                if len > expected_len - out.len() {
                    return Err(CompressError::LengthMismatch {
                        expected: expected_len,
                        actual: out.len().saturating_add(len),
                    });
                }
                out.extend_from_slice(literals);
                pos += len;
            }
        }
        if out.len() != expected_len {
            return Err(CompressError::LengthMismatch {
                expected: expected_len,
                actual: out.len(),
            });
        }
        Ok(out)
    }

    /// The byte-at-a-time encoder's whole stream.
    fn compress_reference(data: &[u8]) -> Vec<u8> {
        let mut out = header(data.len() as u64);
        find_matches_reference(data, &mut out);
        out
    }

    /// Round-trips through every encoder x decoder combination: both
    /// encoders emit the same format, so all four pairs must agree.
    fn roundtrip(data: &[u8]) {
        for packed in [compress(data), compress_reference(data)] {
            assert_eq!(decompress(&packed).unwrap(), data);
            assert_eq!(decompress_reference(&packed).unwrap(), data);
        }
    }

    fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
        let len = rng.random_range(0..=max_len);
        (0..len).map(|_| rng.random()).collect()
    }

    /// A syntactically valid header declaring `uncompressed_len`.
    fn header(uncompressed_len: u64) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(VERSION);
        encode_varint(uncompressed_len, &mut out);
        out
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"");
        roundtrip(b"a");
        roundtrip(b"ab");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_input_shrinks() {
        let data = b"the quick brown fox ".repeat(100);
        let packed = compress(&data);
        assert!(
            packed.len() < data.len() / 4,
            "{} vs {}",
            packed.len(),
            data.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
    }

    #[test]
    fn incompressible_input_roundtrips() {
        // Pseudo-random bytes: no 4-byte repeats worth finding.
        let mut state = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn overlapping_copy_rle_style() {
        // A single-byte run compresses via overlapping back-references.
        let data = vec![7u8; 100_000];
        let packed = compress(&data);
        assert!(
            packed.len() < 100,
            "run should collapse, got {}",
            packed.len()
        );
        assert_eq!(decompress(&packed).unwrap(), data);
        assert_eq!(decompress_reference(&packed).unwrap(), data);
    }

    #[test]
    fn long_literals_cross_escape_boundary() {
        // Literal runs longer than the 7-bit short form.
        let data: Vec<u8> = (0..400u32).map(|i| (i % 251) as u8).collect();
        roundtrip(&data);
    }

    #[test]
    fn matches_beyond_window_are_not_used() {
        // Repeat separated by > 64 KiB of junk: still roundtrips.
        let mut data = b"needle-needle-needle".to_vec();
        let mut state = 1u64;
        data.extend((0..MAX_OFFSET + 100).map(|_| {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            (state >> 33) as u8
        }));
        data.extend_from_slice(b"needle-needle-needle");
        roundtrip(&data);
    }

    #[test]
    fn bad_header_rejected() {
        for dec in [decompress, decompress_reference] {
            assert_eq!(dec(b""), Err(CompressError::BadHeader));
            assert_eq!(dec(b"XZ\x01"), Err(CompressError::BadHeader));
            assert_eq!(dec(b"HZ\x02\x00"), Err(CompressError::BadHeader));
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let packed = compress(b"hello world hello world hello world");
        for cut in 3..packed.len() {
            assert!(decompress(&packed[..cut]).is_err(), "prefix len {cut}");
            assert!(
                decompress_reference(&packed[..cut]).is_err(),
                "prefix len {cut} (reference)"
            );
        }
    }

    #[test]
    fn corrupt_backref_rejected() {
        // Hand-build: header, len 4, then a copy with offset 9 into an empty
        // output buffer.
        let mut bad = header(4);
        bad.push(1); // copy, short len = MIN_MATCH
        encode_varint(9, &mut bad); // offset 9 > output len 0
        assert!(matches!(
            decompress(&bad),
            Err(CompressError::InvalidBackref { .. })
        ));
        assert!(matches!(
            decompress_reference(&bad),
            Err(CompressError::InvalidBackref { .. })
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut packed = compress(b"abcdef");
        // Tamper with the declared length (varint 6 -> 7).
        packed[3] = 7;
        assert!(matches!(
            decompress(&packed),
            Err(CompressError::LengthMismatch {
                expected: 7,
                actual: 6
            })
        ));
    }

    #[test]
    fn ratio_reports_sensibly() {
        assert!(compress(&[0u8; 10_000]).len() * 50 < 10_000);
    }

    #[test]
    fn skip_acceleration_still_finds_late_matches() {
        // A long incompressible prefix (stride grows) followed by dense
        // repetition: the encoder must still compress the tail.
        let mut state = 77u64;
        let mut data: Vec<u8> = (0..8_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        data.extend(b"tail-pattern ".repeat(500));
        let packed = compress(&data);
        assert!(
            packed.len() < data.len(),
            "{} vs {}",
            packed.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn corrupted_streams_never_panic_and_keep_the_length_contract() {
        // Flip bytes anywhere in a valid stream: the decoder may legitimately
        // still succeed (e.g. a mutated literal byte), but it must not panic,
        // and any Ok output must honor the declared length.
        let mut rng = StdRng::seed_from_u64(0x7122);
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog "
            .repeat(20)
            .to_vec();
        let packed = compress(&data);
        for _ in 0..2_000 {
            let mut bad = packed.clone();
            let at = rng.random_range(0..bad.len());
            bad[at] ^= rng.random_range(1u8..=255);
            if let Ok(out) = decompress(&bad) {
                assert_eq!(out.len(), data.len(), "corrupt Ok must match the header");
            }
            // The reference decoder must be equally robust.
            if let Ok(out) = decompress_reference(&bad) {
                assert_eq!(out.len(), data.len());
            }
        }
    }

    #[test]
    fn random_garbage_never_panics() {
        let mut rng = StdRng::seed_from_u64(0x7123);
        for _ in 0..128 {
            let garbage = random_bytes(&mut rng, 512);
            let _ = decompress(&garbage);
            let _ = decompress_reference(&garbage);
            // Garbage behind a valid header, too.
            let mut framed = header(rng.random_range(0..10_000));
            framed.extend(random_bytes(&mut rng, 256));
            let _ = decompress(&framed);
            let _ = decompress_reference(&framed);
        }
    }

    #[test]
    fn huge_declared_length_does_not_preallocate() {
        // The header claims an enormous output; the stream holds 4 bytes. The
        // decoder must fail with a small, cheap error — a `with_capacity` on
        // the declared length would abort the process long before the
        // assertion. (Both decoders share the capped-reservation guard.)
        for declared in [1u64 << 40, 1 << 50, u64::MAX] {
            let mut bad = header(declared);
            bad.push(3 << 1);
            bad.extend_from_slice(b"abcd");
            assert!(matches!(
                decompress(&bad),
                Err(CompressError::LengthMismatch { .. })
            ));
            assert!(matches!(
                decompress_reference(&bad),
                Err(CompressError::LengthMismatch { .. })
            ));
        }
    }

    #[test]
    fn random_buffers_roundtrip_all_pairings() {
        let mut rng = StdRng::seed_from_u64(0x7124);
        for _ in 0..128 {
            roundtrip(&random_bytes(&mut rng, 4096));
        }
    }

    #[test]
    fn pathological_buffers_roundtrip_all_pairings() {
        // All-zero (maximum overlap-copy pressure) at sizes straddling the
        // short/long op boundary and the decoder's chunked-copy doubling.
        for len in [0usize, 1, 3, 4, 5, 127, 128, 130, 131, 4096, 100_000] {
            roundtrip(&vec![0u8; len]);
        }
        // Incompressible: no 4-byte match anywhere, including across the skip
        // acceleration's growing stride.
        let mut state = 0xBADC_0FFEu64;
        let incompressible: Vec<u8> = (0..64 * 1024)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect();
        roundtrip(&incompressible);
        // Long repeats with a tail shorter than a word, exercising the
        // word-at-a-time extension's sub-8-byte mop-up.
        let mut repeats: Vec<u8> = b"0123456789abcdef".repeat(1000);
        repeats.extend_from_slice(b"xyz");
        roundtrip(&repeats);
    }

    /// A valid stream's ops as `(output position, length, offset)`, with
    /// offset 0 for a literal run.
    fn ops(stream: &[u8]) -> Vec<(usize, usize, usize)> {
        let (_, n) = decode_varint(&stream[3..]).unwrap();
        let mut pos = 3 + n;
        let mut at = 0;
        let mut ops = Vec::new();
        while pos < stream.len() {
            let tag = stream[pos];
            pos += 1;
            let short_len = (tag >> 1) as usize;
            let (len, offset) = if tag & 1 == 1 {
                let len = decode_op_len(stream, &mut pos, short_len, MIN_MATCH).unwrap();
                let (offset, n) = decode_varint(&stream[pos..]).unwrap();
                pos += n;
                (len, offset as usize)
            } else {
                let len = decode_op_len(stream, &mut pos, short_len, 1).unwrap();
                pos += len;
                (len, 0)
            };
            ops.push((at, len, offset));
            at += len;
        }
        ops
    }

    /// Up to 70,000 bytes of noise runs and of copies of earlier bytes,
    /// from anywhere in the window.
    fn seeded_input(rng: &mut StdRng) -> Vec<u8> {
        let target = rng.random_range(0..=70_000usize);
        let mut data = Vec::with_capacity(target);
        while data.len() < target {
            let len = rng.random_range(1..=400usize).min(target - data.len());
            if data.is_empty() || rng.random_range(0..3) == 0 {
                data.extend((0..len).map(|_| rng.random::<u8>()));
            } else {
                let from = rng.random_range(data.len().saturating_sub(MAX_OFFSET)..data.len());
                for i in 0..len {
                    data.push(data[from + i]);
                }
            }
        }
        data
    }

    #[test]
    fn compressed_len_counts_what_compress_writes() {
        let mut rng = StdRng::seed_from_u64(0x7126);
        let mut inputs: Vec<Vec<u8>> = (0..64).map(|_| seeded_input(&mut rng)).collect();
        // 20 noise bytes, then a repeat of the first six: the one match
        // starts inside the last eight bytes.
        let mut tail: Vec<u8> = (0..20).map(|_| rng.random()).collect();
        tail.extend_from_within(..6);
        inputs.push(tail);
        inputs.push(vec![0; 70_000]);

        // Every op shape whose encoding changes width: literal runs and
        // copies past the short form, and offsets of two and three varint
        // bytes; and a copy found by the sub-8-byte tail loop.
        let (mut long_literal, mut long_copy, mut tail_copy) = (false, false, false);
        let (mut offset_2, mut offset_3) = (false, false);
        for data in &inputs {
            let packed = compress(data);
            assert_eq!(compressed_len(data), packed.len(), "{} bytes", data.len());
            for (at, len, offset) in ops(&packed) {
                if offset == 0 {
                    long_literal |= len >= 128;
                } else {
                    long_copy |= len >= 131;
                    tail_copy |= at + 8 > data.len();
                    offset_2 |= (128..16_384).contains(&offset);
                    offset_3 |= offset >= 16_384;
                }
            }
        }
        assert_eq!(
            (long_literal, long_copy, tail_copy, offset_2, offset_3),
            (true, true, true, true, true),
            "(literal run >= 128, copy >= 131, tail-loop copy, offset >= 128, offset >= 16384)"
        );
    }

    #[test]
    fn structured_overlapping_runs_roundtrip() {
        // Zipf-ish key-value shaped data, close to what SSTable blocks hold.
        let mut rng = StdRng::seed_from_u64(0x7125);
        for _ in 0..32 {
            let mut data = Vec::new();
            for _ in 0..rng.random_range(1..400usize) {
                let key = rng.random_range(0u32..50);
                data.extend_from_slice(format!("key-{key:06}").as_bytes());
                data.extend_from_slice(format!("value-{key}-{}", "x".repeat(40)).as_bytes());
            }
            roundtrip(&data);
        }
    }
}
