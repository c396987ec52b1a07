//! `LruCache` against the stamp-ordered LRU it replaced.
//!
//! The production cache keeps its entries on an intrusive recency list.
//! The oracle below is the previous implementation: every touch takes a
//! fresh stamp, and eviction removes the entry with the smallest stamp
//! from a `BTreeMap`. Random op streams replay through both, and after
//! every op the hit result, the byte count, the entry count and the
//! membership of every key must agree.

use std::collections::{BTreeMap, HashMap};

use hsdp_rng::{Rng, StdRng};
use hsdp_storage::cache::{CachePolicy, LruCache};

/// The stamp-ordered LRU: `key -> (stamp, size)` plus `stamp -> key`.
#[derive(Debug)]
struct StampLru {
    capacity: u64,
    used: u64,
    stamp: u64,
    entries: HashMap<u64, (u64, u64)>,
    order: BTreeMap<u64, u64>,
}

impl StampLru {
    fn new(capacity: u64) -> Self {
        StampLru {
            capacity,
            used: 0,
            stamp: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some((stamp, _)) = self.entries.get(&key).copied() {
            self.order.remove(&stamp);
            self.stamp += 1;
            self.order.insert(self.stamp, key);
            if let Some(entry) = self.entries.get_mut(&key) {
                entry.0 = self.stamp;
            }
        }
    }

    fn evict_to_fit(&mut self, incoming: u64) {
        while self.used + incoming > self.capacity {
            let Some((&oldest_stamp, &victim)) = self.order.iter().next() else {
                break;
            };
            self.order.remove(&oldest_stamp);
            if let Some((_, size)) = self.entries.remove(&victim) {
                self.used -= size;
            }
        }
    }
}

impl CachePolicy for StampLru {
    fn access(&mut self, key: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.touch(key);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, key: u64, size: u64) {
        self.remove(key);
        if size > self.capacity {
            return;
        }
        self.evict_to_fit(size);
        self.stamp += 1;
        self.entries.insert(key, (self.stamp, size));
        self.order.insert(self.stamp, key);
        self.used += size;
    }

    fn remove(&mut self, key: u64) {
        if let Some((stamp, size)) = self.entries.remove(&key) {
            self.order.remove(&stamp);
            self.used -= size;
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Keys are drawn from `0..KEYS`, so streams revisit keys often.
const KEYS: u64 = 48;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Access(u64),
    Remove(u64),
}

/// A random op stream for a cache of `capacity` bytes. Most inserts are
/// small; some take half the cache or more (evicting several entries) and
/// some exceed it (bypassing the cache).
fn random_ops(rng: &mut StdRng, capacity: u64, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let key = rng.random_range(0..KEYS);
            match rng.random_range(0..20u8) {
                0..=8 => Op::Insert(key, rng.random_range(1..=capacity / 6)),
                9 => Op::Insert(key, rng.random_range(capacity / 2..=capacity)),
                10 => Op::Insert(key, rng.random_range(capacity + 1..=capacity * 2)),
                11..=16 => Op::Access(key),
                _ => Op::Remove(key),
            }
        })
        .collect()
}

/// How often a replay hit each case the oracle must agree on.
#[derive(Debug, Default)]
struct Coverage {
    resized: usize,
    bypassed: usize,
    multi_evictions: usize,
    hits: usize,
    misses: usize,
    removed_present: usize,
    removed_absent: usize,
}

fn assert_same(cache: &LruCache, oracle: &StampLru, context: &str) {
    assert_eq!(cache.used_bytes(), oracle.used_bytes(), "{context}: used");
    assert_eq!(cache.len(), oracle.len(), "{context}: len");
    assert_eq!(cache.is_empty(), oracle.is_empty(), "{context}: is_empty");
    assert_eq!(cache.capacity(), oracle.capacity(), "{context}: capacity");
    for key in 0..KEYS {
        assert_eq!(
            cache.contains(key),
            oracle.contains(key),
            "{context}: contains({key})"
        );
    }
}

#[test]
fn lru_matches_the_stamp_ordered_oracle() {
    let mut rng = StdRng::seed_from_u64(0x1_2AC4E);
    let mut coverage = Coverage::default();
    for stream in 0..64 {
        let capacity = rng.random_range(60u64..400);
        let ops = random_ops(&mut rng, capacity, 400);
        let mut cache = LruCache::new(capacity);
        let mut oracle = StampLru::new(capacity);
        for (i, &op) in ops.iter().enumerate() {
            let context = format!("stream {stream}, op {i} {op:?}");
            match op {
                Op::Insert(key, size) => {
                    let (was_present, before) = (oracle.contains(key), oracle.len());
                    let old_size = oracle.entries.get(&key).map(|&(_, s)| s);
                    cache.insert(key, size);
                    oracle.insert(key, size);
                    if size > capacity {
                        coverage.bypassed += 1;
                    } else {
                        coverage.resized += usize::from(old_size.is_some_and(|s| s != size));
                        let evicted = before - usize::from(was_present) + 1 - oracle.len();
                        coverage.multi_evictions += usize::from(evicted >= 2);
                    }
                }
                Op::Access(key) => {
                    let hit = oracle.access(key);
                    assert_eq!(cache.access(key), hit, "{context}: access");
                    if hit {
                        coverage.hits += 1;
                    } else {
                        coverage.misses += 1;
                    }
                }
                Op::Remove(key) => {
                    if oracle.contains(key) {
                        coverage.removed_present += 1;
                    } else {
                        coverage.removed_absent += 1;
                    }
                    cache.remove(key);
                    oracle.remove(key);
                }
            }
            assert_same(&cache, &oracle, &context);
        }
    }
    let Coverage {
        resized,
        bypassed,
        multi_evictions,
        hits,
        misses,
        removed_present,
        removed_absent,
    } = coverage;
    for (case, count) in [
        ("resized inserts", resized),
        ("bypassing inserts", bypassed),
        ("inserts evicting several entries", multi_evictions),
        ("hits", hits),
        ("misses", misses),
        ("removes of present keys", removed_present),
        ("removes of absent keys", removed_absent),
    ] {
        assert!(
            count >= 50,
            "the streams exercised {case} only {count} times"
        );
    }
}

/// Eviction follows recency, not insertion order: a long run of accesses
/// that reorders every entry must leave both caches evicting the same
/// victims as inserts push past capacity.
#[test]
fn lru_evicts_in_the_oracle_order_after_reordering_accesses() {
    let mut rng = StdRng::seed_from_u64(0x1_2AC4F);
    for round in 0..32 {
        let mut cache = LruCache::new(KEYS * 10);
        let mut oracle = StampLru::new(KEYS * 10);
        for key in 0..KEYS {
            cache.insert(key, 10);
            oracle.insert(key, 10);
        }
        for _ in 0..200 {
            let key = rng.random_range(0..KEYS);
            assert_eq!(cache.access(key), oracle.access(key));
        }
        // Each new key evicts exactly one old key, the least recent.
        for step in 0..KEYS {
            cache.insert(KEYS + step, 10);
            oracle.insert(KEYS + step, 10);
            assert_same(&cache, &oracle, &format!("round {round}, step {step}"));
            assert_eq!(cache.len() as u64, KEYS, "round {round}, step {step}");
        }
        assert!((0..KEYS).all(|key| !cache.contains(key)), "round {round}");
    }
}
