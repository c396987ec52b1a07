//! Adversarial-input suite for the block-compression decoder.
//!
//! Truncated streams, corrupted tags, back-references past the start of the
//! output, and length-overflow streams must return a `CompressError`, never
//! panic and never allocate on the say-so of an untrusted header. The
//! round-trip pairings against the byte-at-a-time codec, and the fuzzing
//! that runs both decoders on the same corrupt input, live next to that
//! codec in `compress.rs`'s unit tests.

use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::compress::{compress, decompress};
use hsdp_taxes::error::CompressError;
use hsdp_taxes::varint::encode_varint;

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..=max_len);
    (0..len).map(|_| rng.random()).collect()
}

/// Builds a syntactically valid header declaring `uncompressed_len`.
fn header(uncompressed_len: u64) -> Vec<u8> {
    let mut out = b"HZ\x01".to_vec();
    encode_varint(uncompressed_len, &mut out);
    out
}

#[test]
fn every_truncation_of_a_valid_stream_errors() {
    let mut rng = StdRng::seed_from_u64(0x7121);
    for _ in 0..16 {
        // Compressible data so the stream mixes literal and copy ops.
        let pattern = random_bytes(&mut rng, 24);
        let mut data: Vec<u8> = pattern
            .iter()
            .copied()
            .cycle()
            .take(pattern.len().max(1) * 40)
            .collect();
        data.extend(random_bytes(&mut rng, 200));
        let packed = compress(&data);
        for cut in 0..packed.len() {
            assert!(
                decompress(&packed[..cut]).is_err(),
                "prefix of len {cut} must fail"
            );
        }
    }
}

#[test]
fn copy_tag_with_offset_past_start_is_rejected() {
    // First op is a copy: there is no output yet, so any offset is invalid.
    let mut bad = header(8);
    bad.push(1); // copy tag, short len = MIN_MATCH
    encode_varint(3, &mut bad); // offset 3 > output len 0
    assert!(matches!(
        decompress(&bad),
        Err(CompressError::InvalidBackref { .. })
    ));

    // A copy whose offset outruns the bytes produced so far.
    let mut bad = header(16);
    bad.push(3 << 1); // literal run of 4
    bad.extend_from_slice(b"abcd");
    bad.push(1); // copy, len 4
    encode_varint(5, &mut bad); // offset 5 > output len 4
    assert!(matches!(
        decompress(&bad),
        Err(CompressError::InvalidBackref { .. })
    ));

    // Offset zero is never valid.
    let mut bad = header(16);
    bad.push(3 << 1);
    bad.extend_from_slice(b"abcd");
    bad.push(1);
    encode_varint(0, &mut bad);
    assert!(matches!(
        decompress(&bad),
        Err(CompressError::InvalidBackref { .. })
    ));
}

#[test]
fn ops_overflowing_the_declared_length_fail_before_producing() {
    // A literal run longer than the declared output.
    let mut bad = header(2);
    bad.push(3 << 1); // literal run of 4
    bad.extend_from_slice(b"abcd");
    assert!(matches!(
        decompress(&bad),
        Err(CompressError::LengthMismatch { expected: 2, .. })
    ));

    // A copy that would overflow the declared output: 4 literals then a
    // long-form copy of 1000 into a 6-byte budget.
    let mut bad = header(6);
    bad.push(3 << 1);
    bad.extend_from_slice(b"abcd");
    bad.push((0x7f << 1) | 1); // copy, long-form length
    encode_varint(1000, &mut bad);
    encode_varint(2, &mut bad); // valid offset
    assert!(matches!(
        decompress(&bad),
        Err(CompressError::LengthMismatch { expected: 6, .. })
    ));
}

#[test]
fn overlap_copy_bomb_is_bounded_by_the_declared_length() {
    // Classic decompression bomb: tiny input, overlapping copy with a huge
    // long-form length. The output budget check must stop it at the
    // declared length, not at the copy's say-so.
    let mut bad = header(32);
    bad.push(0); // literal run of 1
    bad.push(b'x');
    bad.push((0x7f << 1) | 1); // copy, long-form length
    encode_varint(1 << 40, &mut bad); // 1 TiB claimed
    encode_varint(1, &mut bad); // overlapping offset
    assert!(matches!(
        decompress(&bad),
        Err(CompressError::LengthMismatch { expected: 32, .. })
    ));
}
