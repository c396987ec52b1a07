//! Randomized roundtrip tests for every codec in hsdp-taxes.
//!
//! Formerly `proptest` strategies; now driven by the in-repo deterministic
//! PRNG so the workspace stays dependency-free. Each property runs over
//! `CASES` independently sampled inputs with a fixed seed.

use std::sync::Arc;

use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::compress::{compress, decompress};
use hsdp_taxes::crc::{crc32c, Crc32c};
use hsdp_taxes::protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};
use hsdp_taxes::sha3::Sha3_256;
use hsdp_taxes::varint::{decode_varint, encode_varint, varint_len, zigzag_decode, zigzag_encode};

const CASES: usize = 256;

fn bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..=max_len);
    (0..len).map(|_| rng.random()).collect()
}

#[test]
fn varint_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x7A41);
    for i in 0..CASES {
        // Mix full-range values with small ones so every length class is hit.
        let v: u64 = if i % 2 == 0 {
            rng.random()
        } else {
            rng.random::<u64>() >> rng.random_range(0..64u32)
        };
        let mut buf = Vec::new();
        let len = encode_varint(v, &mut buf);
        assert_eq!(len, varint_len(v));
        let (decoded, consumed) = decode_varint(&buf).expect("roundtrip decode");
        assert_eq!(decoded, v);
        assert_eq!(consumed, len);
    }
}

#[test]
fn zigzag_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x2162);
    for _ in 0..CASES {
        let v: i64 = rng.random();
        assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }
    for v in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }
}

#[test]
fn zigzag_small_magnitude_small_encoding() {
    let mut rng = StdRng::seed_from_u64(0x2163);
    for _ in 0..CASES {
        // ZigZag's purpose: small magnitudes encode small.
        let v = rng.random_range(-1000i64..1000);
        assert!(zigzag_encode(v) <= 2000, "zigzag({v}) too large");
    }
}

#[test]
fn compress_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xC04E55);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 4096);
        let packed = compress(&data);
        assert_eq!(decompress(&packed).expect("roundtrip"), data);
    }
}

#[test]
fn compress_roundtrip_repetitive() {
    let mut rng = StdRng::seed_from_u64(0xC04E56);
    for _ in 0..CASES {
        let pattern_len = rng.random_range(1..32usize);
        let pattern: Vec<u8> = (0..pattern_len).map(|_| rng.random()).collect();
        let repeats = rng.random_range(1..200usize);
        let data: Vec<u8> = pattern
            .iter()
            .copied()
            .cycle()
            .take(pattern.len() * repeats)
            .collect();
        let packed = compress(&data);
        assert_eq!(decompress(&packed).expect("roundtrip"), data);
    }
}

#[test]
fn decompress_never_panics_on_garbage() {
    let mut rng = StdRng::seed_from_u64(0xDEAD1);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 512);
        let _ = decompress(&data);
    }
}

#[test]
fn crc_streaming_equals_oneshot() {
    let mut rng = StdRng::seed_from_u64(0xC4C);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 1024);
        let split = rng.random_range(0..1024usize).min(data.len());
        let mut h = Crc32c::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), crc32c(&data));
    }
}

#[test]
fn sha3_incremental_equals_oneshot() {
    let mut rng = StdRng::seed_from_u64(0x54A3);
    for _ in 0..CASES {
        let data = bytes(&mut rng, 2048);
        let split = rng.random_range(0..2048usize).min(data.len());
        let mut h = Sha3_256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), Sha3_256::digest(&data));
    }
}

#[test]
fn message_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x4E55A6E);
    const NAME_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
    for _ in 0..CASES {
        let desc = Arc::new(
            MessageDescriptor::new(
                "P",
                vec![
                    FieldDescriptor::optional(1, "id", FieldType::Uint64),
                    FieldDescriptor::optional(2, "name", FieldType::String),
                    FieldDescriptor::optional(3, "score", FieldType::Double),
                    FieldDescriptor::repeated(4, "tags", FieldType::Sint64),
                    FieldDescriptor::optional(5, "blob", FieldType::Bytes),
                ],
            )
            .expect("valid descriptor"),
        );
        let name: String = (0..rng.random_range(0..=64usize))
            .map(|_| char::from(NAME_ALPHABET[rng.random_range(0..NAME_ALPHABET.len())]))
            .collect();
        // Bit-pattern doubles exercise NaN/Inf encodings too.
        let score = f64::from_bits(rng.random());
        let mut msg = Message::new(Arc::clone(&desc));
        msg.set(1, Value::Uint64(rng.random()))
            .expect("schema field");
        msg.set(2, Value::Str(name)).expect("schema field");
        msg.set(3, Value::Double(score)).expect("schema field");
        for _ in 0..rng.random_range(0..16usize) {
            msg.push(4, Value::Sint64(rng.random()))
                .expect("schema field");
        }
        msg.set(5, Value::Bytes(bytes(&mut rng, 128)))
            .expect("schema field");

        let encoded = msg.encode_to_vec();
        assert_eq!(encoded.len(), msg.encoded_len());
        let decoded = Message::decode(desc, &encoded).expect("roundtrip");
        // NaN != NaN breaks full equality; compare encodings instead, which
        // must be byte-identical.
        assert_eq!(decoded.encode_to_vec(), encoded);
    }
}

#[test]
fn message_decode_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x4E55A6F);
    let desc = Arc::new(
        MessageDescriptor::new(
            "F",
            vec![
                FieldDescriptor::optional(1, "a", FieldType::Uint64),
                FieldDescriptor::optional(2, "b", FieldType::String),
                FieldDescriptor::optional(3, "c", FieldType::Fixed64),
            ],
        )
        .expect("valid descriptor"),
    );
    for _ in 0..CASES {
        let data = bytes(&mut rng, 256);
        let _ = Message::decode(Arc::clone(&desc), &data);
    }
}

#[test]
fn sha3_distinct_for_distinct_inputs() {
    let mut rng = StdRng::seed_from_u64(0xD157);
    for _ in 0..CASES {
        let a = bytes(&mut rng, 256);
        let b = bytes(&mut rng, 256);
        if a == b {
            continue;
        }
        assert_ne!(Sha3_256::digest(&a), Sha3_256::digest(&b));
    }
}
