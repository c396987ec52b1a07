//! Known answers for the block compressor: the length and CRC32C of the
//! stream `compress` emits on three fixed 64 KiB-class corpora, and the
//! same length from `compressed_len`.
//!
//! The stream, and so the SSTable and column-file lengths the platforms
//! charge for, is a pure function of the encoder's match decisions, so any
//! change to those decisions — a new hash, a different skip schedule,
//! another table-insert policy — changes simulated time even when every
//! round trip still succeeds. These pins catch that.
//! The corpora cover the encoder's regimes:
//!
//! - `fleet-log`: the log-like row traffic `hsdp bench` times (short,
//!   frequent matches);
//! - `hot-block`: one random 2 KiB block repeated (long matches, the
//!   match-extension regime);
//! - `sstable`: sorted, varint-length-prefixed key/value pairs laid out the
//!   way `bigtable` encodes an SSTable, drawn from the BigTable workload's key
//!   and value generators.

use std::collections::BTreeMap;

use hsdp_rng::{Rng, StdRng};
use hsdp_taxes::compress::{compress, compressed_len, decompress};
use hsdp_taxes::crc::crc32c;
use hsdp_taxes::varint::encode_varint;
use hsdp_workload::keys::{KeyGen, ValueGen};

const CORPUS_LEN: usize = 64 * 1024;
/// The seed `hsdp bench` draws its codec corpora from.
const BENCH_SEED: u64 = 0x15CA23;

/// `hsdp bench`'s fleet-log corpus: hot-key row traffic with a few thousand
/// timestamps and a couple hundred users, so lines repeat with small
/// variations.
fn fleet_log() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let mut corpus = Vec::with_capacity(CORPUS_LEN + 128);
    while corpus.len() < CORPUS_LEN {
        let ts = rng.random_range(0u32..2_000);
        let shard = rng.random_range(0u32..64);
        let user = rng.random_range(0u64..200);
        corpus.extend_from_slice(
            format!("ts=1681{ts:06} shard={shard:02} user={user:06} op=read status=OK\n")
                .as_bytes(),
        );
    }
    corpus.truncate(CORPUS_LEN);
    corpus
}

/// One random 2 KiB block repeated to 64 KiB (hot-tablet readback).
fn hot_block() -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0xB10C);
    let block: Vec<u8> = (0..2048)
        .map(|_| rng.random_range(0u32..255) as u8)
        .collect();
    block.iter().copied().cycle().take(CORPUS_LEN).collect()
}

/// 200 sorted rows of the BigTable keyspace, each `varint(key len) | key |
/// varint(value len) | value`.
fn sstable() -> Vec<u8> {
    let keys = KeyGen::new("bt", 20_000, 0.99);
    let values = ValueGen::new(300);
    let mut rng = StdRng::seed_from_u64(BENCH_SEED ^ 0x55_7AB1E);
    let rows: BTreeMap<Vec<u8>, Vec<u8>> = (0..200)
        .map(|rank| (keys.key_for_rank(rank), values.sample(&mut rng)))
        .collect();
    let mut raw = Vec::new();
    for (key, value) in &rows {
        encode_varint(key.len() as u64, &mut raw);
        raw.extend_from_slice(key);
        encode_varint(value.len() as u64, &mut raw);
        raw.extend_from_slice(value);
    }
    raw
}

/// Expected values were recorded with the AVX2 encoder that earlier
/// releases dispatched to on x86-64 (its scalar tier emitted the same
/// bytes), so these also pin today's encoder to the streams older builds
/// wrote.
#[test]
fn compress_emits_the_pinned_bytes() {
    for (name, corpus, want_len, want_crc) in [
        ("fleet-log", fleet_log(), 14_840, 0x29cf_60a2),
        ("hot-block", hot_block(), 2_072, 0x2329_672e),
        ("sstable", sstable(), 21_193, 0x52ec_00ca),
    ] {
        let packed = compress(&corpus);
        assert_eq!(
            (packed.len(), crc32c(&packed)),
            (want_len, want_crc),
            "{name}: compress output changed"
        );
        assert_eq!(
            decompress(&packed).as_ref(),
            Ok(&corpus),
            "{name}: round trip"
        );
        assert_eq!(compressed_len(&corpus), want_len, "{name}: compressed_len");
    }
}
