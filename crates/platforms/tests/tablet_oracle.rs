//! Randomized oracle test for the tablet-partitioned LSM: a random
//! put/get/scan stream must read back identically from a multi-tablet
//! instance, a single-tablet instance, and a plain `BTreeMap` model,
//! through flushes and multi-level merges.

use std::collections::BTreeMap;

use hsdp_platforms::bigtable::{route_key, BigTable, BigTableConfig};
use hsdp_rng::{Rng, StdRng};

/// One step of the randomized workload, pre-generated so every instance
/// under test replays the identical stream.
#[derive(Debug, Clone)]
enum Op {
    Put { key: Vec<u8>, value: Vec<u8> },
    Get { key: Vec<u8> },
    Scan { start: Vec<u8>, limit: usize },
}

fn row_key(id: u64) -> Vec<u8> {
    format!("row-{id:06}").into_bytes()
}

/// A random stream over a hot key space: plenty of overwrites (so
/// compaction has versions to supersede), misses, and range scans whose
/// windows straddle tablet boundaries (routing is by key hash, so any
/// contiguous key range interleaves all tablets).
fn random_ops(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    for op in 0..len {
        let roll = rng.random_range(0u32..100);
        if roll < 60 {
            let id = rng.random_range(0u64..400);
            let pad = rng.random_range(0u64..40);
            ops.push(Op::Put {
                key: row_key(id),
                value: format!("v{op:04}-{id:06}-{:0>width$}", "", width = pad as usize)
                    .into_bytes(),
            });
        } else if roll < 85 {
            // Beyond the put range, so some gets miss.
            ops.push(Op::Get {
                key: row_key(rng.random_range(0u64..500)),
            });
        } else {
            ops.push(Op::Scan {
                start: row_key(rng.random_range(0u64..450)),
                limit: rng.random_range(1u64..30) as usize,
            });
        }
    }
    ops
}

/// Small memtable and fanin so a few hundred puts drive real flushes and
/// multi-level merges in every tablet.
fn small_config(tablets: usize) -> BigTableConfig {
    BigTableConfig {
        memtable_flush_bytes: 4 * 1024,
        compaction_fanin: 3,
        tablets,
        ..BigTableConfig::default()
    }
}

#[test]
fn randomized_stream_reads_identically_across_tablet_counts() {
    for seed in [1u64, 2, 3] {
        let ops = random_ops(seed, 900);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut sharded = BigTable::new(small_config(4), seed);
        let mut oracle = BigTable::new(small_config(1), seed);
        for op in &ops {
            match op {
                Op::Put { key, value } => {
                    model.insert(key.clone(), value.clone());
                    sharded.put(key.clone(), value.clone());
                    oracle.put(key.clone(), value.clone());
                }
                Op::Get { key } => {
                    // Result-identity on every read, including misses, and
                    // compaction-preserves-newest: the model always holds
                    // the latest version of each key.
                    assert_eq!(
                        sharded.lookup(key),
                        model.get(key).cloned(),
                        "seed {seed}: sharded lookup diverged from model"
                    );
                    assert_eq!(
                        oracle.lookup(key),
                        model.get(key).cloned(),
                        "seed {seed}: single-tablet lookup diverged from model"
                    );
                    sharded.get(key);
                    oracle.get(key);
                }
                Op::Scan { start, limit } => {
                    let expected: Vec<(Vec<u8>, usize)> = model
                        .range(start.clone()..)
                        .take(*limit)
                        .map(|(k, v)| (k.clone(), v.len()))
                        .collect();
                    assert_eq!(
                        sharded.scan_model(start, *limit),
                        expected,
                        "seed {seed}: cross-tablet scan diverged from model"
                    );
                    assert_eq!(
                        oracle.scan_model(start, *limit),
                        expected,
                        "seed {seed}: single-tablet scan diverged from model"
                    );
                    sharded.scan(start, *limit);
                    oracle.scan(start, *limit);
                }
            }
        }
        // The workload actually exercised the machinery it claims to: keys
        // landed on every tablet (so the scans above were cross-tablet) and
        // both instances flushed and compacted.
        let touched: std::collections::BTreeSet<usize> =
            model.keys().map(|k| route_key(k, 4)).collect();
        assert_eq!(touched.len(), 4, "seed {seed}: a tablet saw no keys");
        assert!(
            sharded.compactions() > 0,
            "seed {seed}: sharded never compacted"
        );
        assert!(
            oracle.compactions() > 0,
            "seed {seed}: oracle never compacted"
        );
        assert_eq!(sharded.tablet_count(), 4);
    }
}
