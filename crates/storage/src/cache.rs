//! Byte-capacity cache policies: LRU, LFU, and 2Q.
//!
//! Caching is the performance backbone of all three platforms (Section 3:
//! "these platforms use large amounts of RAM for read caches and write
//! buffers"). The policies are pluggable so the cache-policy ablation bench
//! can compare their effect on the IO-heavy query fraction.

use std::collections::{BTreeMap, HashMap, VecDeque};

/// A byte-capacity cache over `u64` keys.
///
/// Implementations track entry sizes and evict to stay within capacity.
pub trait CachePolicy: std::fmt::Debug {
    /// Records an access; returns true on hit.
    fn access(&mut self, key: u64) -> bool;

    /// Inserts (or refreshes) an entry of `size` bytes, evicting as needed.
    fn insert(&mut self, key: u64, size: u64);

    /// Removes an entry if present.
    fn remove(&mut self, key: u64);

    /// True if the key is cached (without touching recency state).
    fn contains(&self, key: u64) -> bool;

    /// Bytes currently cached.
    fn used_bytes(&self) -> u64;

    /// Capacity in bytes.
    fn capacity(&self) -> u64;

    /// Number of entries.
    fn len(&self) -> usize;

    /// True when no entries are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// End-of-list marker for [`LruCache`]'s slot links.
const NIL: usize = usize::MAX;

/// One [`LruCache`] entry, linked into the recency list by slot index.
#[derive(Debug, Clone, Copy)]
struct LruNode {
    key: u64,
    size: u64,
    prev: usize,
    next: usize,
}

/// Least-recently-used eviction.
///
/// Entries live in a slab of slots threaded into a doubly linked recency
/// list, least recent at the head: an access relinks its slot at the tail,
/// an insert appends there, and eviction pops the head, all in O(1). The
/// `HashMap` only maps a key to its slot and is never iterated.
#[derive(Debug)]
pub struct LruCache {
    capacity: u64,
    used: u64,
    slots: HashMap<u64, usize>,
    nodes: Vec<LruNode>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruCache {
    /// An empty LRU cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        LruCache {
            capacity,
            used: 0,
            slots: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let LruNode { prev, next, .. } = self.nodes[slot];
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next].prev = prev,
        }
    }

    fn push_tail(&mut self, slot: usize) {
        self.nodes[slot].prev = self.tail;
        self.nodes[slot].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            tail => self.nodes[tail].next = slot,
        }
        self.tail = slot;
    }

    /// Unlinks `slot`, frees it, and releases its bytes.
    fn release(&mut self, slot: usize) {
        self.unlink(slot);
        self.used -= self.nodes[slot].size;
        self.free.push(slot);
    }

    fn evict_to_fit(&mut self, incoming: u64) {
        while self.used + incoming > self.capacity && self.head != NIL {
            let victim = self.head;
            self.slots.remove(&self.nodes[victim].key);
            self.release(victim);
        }
    }
}

impl CachePolicy for LruCache {
    fn access(&mut self, key: u64) -> bool {
        let Some(&slot) = self.slots.get(&key) else {
            return false;
        };
        self.unlink(slot);
        self.push_tail(slot);
        true
    }

    fn insert(&mut self, key: u64, size: u64) {
        self.remove(key);
        if size > self.capacity {
            return; // larger than the whole cache: bypass
        }
        self.evict_to_fit(size);
        let node = LruNode {
            key,
            size,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot] = node;
                slot
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.push_tail(slot);
        self.slots.insert(key, slot);
        self.used += size;
    }

    fn remove(&mut self, key: u64) {
        if let Some(slot) = self.slots.remove(&key) {
            self.release(slot);
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.slots.contains_key(&key)
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn capacity(&self) -> u64 {
        self.capacity
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Least-frequently-used eviction (ties broken by recency).
#[derive(Debug)]
pub struct LfuCache {
    capacity: u64,
    used: u64,
    stamp: u64,
    entries: HashMap<u64, (u64, u64, u64)>, // key -> (freq, stamp, size)
    order: BTreeMap<(u64, u64), u64>,       // (freq, stamp) -> key
}

impl LfuCache {
    /// An empty LFU cache with the given byte capacity.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        LfuCache {
            capacity,
            used: 0,
            stamp: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
        }
    }

    fn bump(&mut self, key: u64) {
        if let Some((freq, stamp, size)) = self.entries.get(&key).copied() {
            self.order.remove(&(freq, stamp));
            self.stamp += 1;
            self.entries.insert(key, (freq + 1, self.stamp, size));
            self.order.insert((freq + 1, self.stamp), key);
        }
    }
}

impl CachePolicy for LfuCache {
    fn access(&mut self, key: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.bump(key);
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
        while self.used + size > self.capacity {
            let Some((&victim_key_pos, &victim)) = self.order.iter().next() else {
                break;
            };
            self.order.remove(&victim_key_pos);
            if let Some((_, _, vsize)) = self.entries.remove(&victim) {
                self.used -= vsize;
            }
        }
        self.stamp += 1;
        self.entries.insert(key, (1, self.stamp, size));
        self.order.insert((1, self.stamp), key);
        self.used += size;
    }

    fn remove(&mut self, key: u64) {
        if let Some((freq, stamp, size)) = self.entries.remove(&key) {
            self.order.remove(&(freq, stamp));
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

/// 2Q: a small FIFO probation queue in front of a protected LRU main area —
/// scan-resistant, matching how production read caches avoid pollution from
/// large table scans.
#[derive(Debug)]
pub struct TwoQCache {
    probation: VecDeque<u64>,
    probation_sizes: HashMap<u64, u64>,
    probation_capacity: u64,
    probation_used: u64,
    main: LruCache,
}

impl TwoQCache {
    /// A 2Q cache: `probation_fraction` of capacity goes to the probation
    /// FIFO (typical: 0.25), the rest to the protected LRU.
    ///
    /// # Panics
    ///
    /// Panics unless `probation_fraction ∈ (0, 1)`.
    #[must_use]
    pub fn new(capacity: u64, probation_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&probation_fraction) && probation_fraction > 0.0,
            "probation fraction must be in (0, 1)"
        );
        let probation_capacity = (capacity as f64 * probation_fraction) as u64;
        TwoQCache {
            probation: VecDeque::new(),
            probation_sizes: HashMap::new(),
            probation_capacity,
            probation_used: 0,
            main: LruCache::new(capacity - probation_capacity),
        }
    }

    fn evict_probation_to_fit(&mut self, incoming: u64) {
        while self.probation_used + incoming > self.probation_capacity {
            let Some(victim) = self.probation.pop_front() else {
                break;
            };
            if let Some(size) = self.probation_sizes.remove(&victim) {
                self.probation_used -= size;
            }
        }
    }
}

impl CachePolicy for TwoQCache {
    fn access(&mut self, key: u64) -> bool {
        if self.main.access(key) {
            return true;
        }
        // A probation hit promotes to the protected area.
        if let Some(size) = self.probation_sizes.remove(&key) {
            self.probation.retain(|&k| k != key);
            self.probation_used -= size;
            self.main.insert(key, size);
            return true;
        }
        false
    }

    fn insert(&mut self, key: u64, size: u64) {
        self.remove(key);
        if size > self.probation_capacity {
            return;
        }
        self.evict_probation_to_fit(size);
        self.probation.push_back(key);
        self.probation_sizes.insert(key, size);
        self.probation_used += size;
    }

    fn remove(&mut self, key: u64) {
        self.main.remove(key);
        if let Some(size) = self.probation_sizes.remove(&key) {
            self.probation.retain(|&k| k != key);
            self.probation_used -= size;
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.main.contains(key) || self.probation_sizes.contains_key(&key)
    }

    fn used_bytes(&self) -> u64 {
        self.probation_used + self.main.used_bytes()
    }

    fn capacity(&self) -> u64 {
        self.probation_capacity + self.main.capacity()
    }

    fn len(&self) -> usize {
        self.probation_sizes.len() + self.main.len()
    }
}

/// The policy choices exposed to configuration and the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// Least frequently used.
    Lfu,
    /// Scan-resistant two-queue.
    TwoQ,
    /// Learned admission/eviction (the paper's Section 3 future-work
    /// direction; see [`crate::predictive`]).
    Predictive,
}

/// Builds a boxed cache of the requested policy.
#[must_use]
pub fn build_cache(kind: PolicyKind, capacity: u64) -> Box<dyn CachePolicy + Send> {
    match kind {
        PolicyKind::Lru => Box::new(LruCache::new(capacity)),
        PolicyKind::Lfu => Box::new(LfuCache::new(capacity)),
        PolicyKind::TwoQ => Box::new(TwoQCache::new(capacity, 0.25)),
        PolicyKind::Predictive => Box::new(crate::predictive::PredictiveCache::new(capacity)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(cache: &mut impl CachePolicy, keys: std::ops::Range<u64>, size: u64) {
        for k in keys {
            cache.insert(k, size);
        }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = LruCache::new(30);
        fill(&mut c, 0..3, 10);
        assert_eq!(c.len(), 3);
        assert!(c.access(0)); // refresh key 0
        c.insert(3, 10); // evicts key 1 (oldest untouched)
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
        assert_eq!(c.used_bytes(), 30);
    }

    #[test]
    fn lru_oversized_entry_bypasses() {
        let mut c = LruCache::new(10);
        c.insert(1, 100);
        assert!(!c.contains(1));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn lru_reinsert_updates_size() {
        let mut c = LruCache::new(100);
        c.insert(1, 40);
        c.insert(1, 10);
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lfu_keeps_hot_entries() {
        let mut c = LfuCache::new(30);
        fill(&mut c, 0..3, 10);
        for _ in 0..5 {
            c.access(0);
            c.access(1);
        }
        c.insert(3, 10); // key 2 has freq 1: evicted
        assert!(c.contains(0) && c.contains(1) && c.contains(3));
        assert!(!c.contains(2));
    }

    #[test]
    fn two_q_resists_scans() {
        let mut c = TwoQCache::new(400, 0.25);
        // Establish a hot working set in the protected area.
        for k in 0..3 {
            c.insert(k, 10);
            assert!(c.access(k), "promotion on second touch");
        }
        // A scan of cold keys churns only the probation queue.
        for k in 100..200 {
            c.insert(k, 10);
        }
        for k in 0..3 {
            assert!(c.contains(k), "hot key {k} survived the scan");
        }
    }

    #[test]
    fn two_q_capacity_split() {
        let c = TwoQCache::new(400, 0.25);
        assert_eq!(c.capacity(), 400);
        assert_eq!(c.used_bytes(), 0);
        assert!(c.is_empty());
    }

    #[test]
    fn remove_works_across_policies() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::TwoQ,
            PolicyKind::Predictive,
        ] {
            let mut c = build_cache(kind, 100);
            c.insert(1, 10);
            assert!(c.contains(1), "{kind:?}");
            c.remove(1);
            assert!(!c.contains(1), "{kind:?}");
            assert_eq!(c.used_bytes(), 0, "{kind:?}");
            c.remove(999); // absent key is a no-op
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        for kind in [
            PolicyKind::Lru,
            PolicyKind::Lfu,
            PolicyKind::TwoQ,
            PolicyKind::Predictive,
        ] {
            let mut c = build_cache(kind, 100);
            for k in 0..1000 {
                c.insert(k, 7);
                assert!(c.used_bytes() <= 100, "{kind:?} at key {k}");
            }
        }
    }
}
