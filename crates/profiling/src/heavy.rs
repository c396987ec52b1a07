//! Space-saving heavy-hitter sketch for per-request attribution.
//!
//! The fleet executes far more requests than any report can itemize, but
//! tail analysis only needs the *heaviest* ones — the requests that absorb
//! the most CPU time or the most of one tax category. This module
//! implements the space-saving algorithm (Metwally, Agrawal & El Abbadi,
//! ICDT 2005) over `u64` keys with weighted increments: a fixed budget of
//! `capacity` counters tracks the top spenders with a per-key error bound,
//! so the tail report can attribute exact-nanosecond CPU and tax-category
//! time to requests without holding the full request universe in memory.
//!
//! ## Determinism
//!
//! Every operation is a pure function of the sketch state and its
//! arguments: eviction picks the minimum `(count, key)` counter (totally
//! ordered — no hash iteration, no RNG), kept at the top of a binary
//! min-heap on `(count, key)` and replaced in `O(log capacity)`; a hash map
//! from key to heap slot is only ever looked up, never iterated. And
//! [`SpaceSaving::entries`] reports in canonical `(count desc, key asc)`
//! order. Replaying the same
//! stream therefore yields byte-identical output; the fleet's shard
//! streams are themselves deterministic, and shard sketches merge in
//! canonical `(platform, shard)` order, so the merged sketch is identical
//! at any `parallelism` and under schedule perturbation.
//!
//! ## Error bound
//!
//! For every tracked key, `count - err <= true_weight <= count` — the
//! classic space-saving guarantee, preserved by [`SpaceSaving::merge`]
//! (absorbed counters inflate `err`, never deflate `count`). Any key whose
//! true weight exceeds `total / capacity` is guaranteed to be tracked.

use hsdp_core::hash::IdMap;

/// One tracked counter: an overestimate of the key's true total weight and
/// the maximum amount by which it can overestimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitterEntry {
    /// The tracked key (for request attribution, a `RequestId` in raw form).
    pub key: u64,
    /// Estimated total weight: `true <= count`.
    pub count: u64,
    /// Maximum overestimate: `count - err <= true`.
    pub err: u64,
}

impl HitterEntry {
    /// The eviction order: the least `(count, key)` goes first.
    fn rank(&self) -> (u64, u64) {
        (self.count, self.key)
    }
}

/// A deterministic space-saving top-k sketch over weighted `u64` keys.
///
/// Equality compares content (capacity, total and [`SpaceSaving::entries`]),
/// not the heap layout, which depends on the order the counters were
/// reached in.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    total: u64,
    /// Every tracked counter, a binary min-heap on `(count, key)`: the
    /// first is the eviction victim.
    heap: Vec<HitterEntry>,
    /// Each tracked key's slot in `heap`; looked up, never iterated.
    slots: IdMap<u64, usize>,
}

impl PartialEq for SpaceSaving {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.total == other.total
            && self.entries() == other.entries()
    }
}

impl Eq for SpaceSaving {}

impl SpaceSaving {
    /// Creates a sketch tracking at most `capacity` keys. A zero capacity
    /// is clamped to one so the sketch always tracks something.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            total: 0,
            heap: Vec::new(),
            slots: IdMap::default(),
        }
    }

    /// The counter budget this sketch was created with.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight observed (exact — independent of the counter budget).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of keys currently tracked (at most `capacity`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no weight has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Adds `weight` to `key`'s counter. If the sketch is full and `key`
    /// is untracked, the minimum `(count, key)` counter is evicted and its
    /// count becomes the new key's error bound.
    pub fn observe(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            return;
        }
        self.total = self.total.saturating_add(weight);
        if self.add(key, weight, 0) {
            return;
        }
        let floor = self.victim().map_or(0, |victim| victim.count);
        self.admit(HitterEntry {
            key,
            count: floor.saturating_add(weight),
            err: floor,
        });
    }

    /// Folds `other` into `self`. Shared keys sum their counts and errors;
    /// keys tracked only by `other` are admitted through the same
    /// eviction rule as [`SpaceSaving::observe`], carrying their incoming
    /// error forward so `count - err <= true` keeps holding. Deterministic
    /// in the operand pair; callers fold shard sketches in canonical shard
    /// order.
    pub fn merge(&mut self, other: &SpaceSaving) {
        self.total = self.total.saturating_add(other.total);
        // Admit heaviest first so the keys that matter win the budget.
        for entry in other.entries() {
            if self.add(entry.key, entry.count, entry.err) {
                continue;
            }
            let floor = match self.victim() {
                // The incoming counter cannot beat the current minimum;
                // absorbing it into an eviction would only inflate error.
                Some(victim) if victim.rank() >= entry.rank() => continue,
                Some(victim) => victim.count,
                None => 0,
            };
            self.admit(HitterEntry {
                key: entry.key,
                count: entry.count.saturating_add(floor),
                err: entry.err.saturating_add(floor),
            });
        }
    }

    /// The counter the next admission evicts: the minimum `(count, key)`
    /// when the sketch is full, `None` while it has room.
    fn victim(&self) -> Option<HitterEntry> {
        if self.heap.len() < self.capacity {
            return None;
        }
        self.heap.first().copied()
    }

    /// Starts tracking the untracked `entry.key`, in place of the victim
    /// when the sketch is full.
    fn admit(&mut self, entry: HitterEntry) {
        if self.victim().is_some() {
            self.slots.remove(&self.heap[0].key);
            self.heap[0] = entry;
            self.sift_down(0);
        } else {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1);
        }
    }

    /// Adds to `key`'s count and error when it is tracked; false when it
    /// is not.
    fn add(&mut self, key: u64, count: u64, err: u64) -> bool {
        let Some(&slot) = self.slots.get(&key) else {
            return false;
        };
        let counter = &mut self.heap[slot];
        counter.count = counter.count.saturating_add(count);
        counter.err = counter.err.saturating_add(err);
        // A larger count can only move the counter away from the top.
        self.sift_down(slot);
        true
    }

    /// Moves the counter at `slot` toward the top while it ranks below its
    /// parent.
    fn sift_up(&mut self, mut slot: usize) {
        let entry = self.heap[slot];
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.heap[parent].rank() <= entry.rank() {
                break;
            }
            self.place(slot, self.heap[parent]);
            slot = parent;
        }
        self.place(slot, entry);
    }

    /// Moves the counter at `slot` away from the top while a child ranks
    /// below it.
    fn sift_down(&mut self, mut slot: usize) {
        let entry = self.heap[slot];
        loop {
            let left = 2 * slot + 1;
            let Some(&left_entry) = self.heap.get(left) else {
                break;
            };
            let (child, least) = match self.heap.get(left + 1) {
                Some(&right_entry) if right_entry.rank() < left_entry.rank() => {
                    (left + 1, right_entry)
                }
                _ => (left, left_entry),
            };
            if least.rank() >= entry.rank() {
                break;
            }
            self.place(slot, least);
            slot = child;
        }
        self.place(slot, entry);
    }

    /// Puts `entry` in heap slot `slot` and records its key's slot.
    fn place(&mut self, slot: usize, entry: HitterEntry) {
        self.heap[slot] = entry;
        self.slots.insert(entry.key, slot);
    }

    /// The tracked counters in canonical order: count descending, key
    /// ascending — the order every report and artifact emits.
    #[must_use]
    pub fn entries(&self) -> Vec<HitterEntry> {
        let mut out = self.heap.clone();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_rng::derive_seed;
    use std::collections::{BTreeMap, HashMap};

    /// The sketch as it was before the `(count, key)` index: the eviction
    /// victim is found by scanning every counter. The oracle the indexed
    /// sketch must match step for step.
    struct LinearSpaceSaving {
        capacity: usize,
        total: u64,
        counters: BTreeMap<u64, (u64, u64)>,
    }

    impl LinearSpaceSaving {
        fn new(capacity: usize) -> Self {
            LinearSpaceSaving {
                capacity: capacity.max(1),
                total: 0,
                counters: BTreeMap::new(),
            }
        }

        fn min_counter(&self) -> Option<(u64, u64)> {
            self.counters
                .iter()
                .map(|(&key, &(count, _))| (count, key))
                .min()
                .map(|(count, key)| (key, count))
        }

        fn observe(&mut self, key: u64, weight: u64) {
            if weight == 0 {
                return;
            }
            self.total = self.total.saturating_add(weight);
            if let Some((count, _)) = self.counters.get_mut(&key) {
                *count = count.saturating_add(weight);
                return;
            }
            if self.counters.len() < self.capacity {
                self.counters.insert(key, (weight, 0));
                return;
            }
            let Some((evicted_key, floor)) = self.min_counter() else {
                self.counters.insert(key, (weight, 0));
                return;
            };
            self.counters.remove(&evicted_key);
            self.counters
                .insert(key, (floor.saturating_add(weight), floor));
        }

        fn merge(&mut self, other: &LinearSpaceSaving) {
            self.total = self.total.saturating_add(other.total);
            for entry in other.entries() {
                if let Some((count, err)) = self.counters.get_mut(&entry.key) {
                    *count = count.saturating_add(entry.count);
                    *err = err.saturating_add(entry.err);
                    continue;
                }
                if self.counters.len() < self.capacity {
                    self.counters.insert(entry.key, (entry.count, entry.err));
                    continue;
                }
                let Some((evicted_key, floor)) = self.min_counter() else {
                    self.counters.insert(entry.key, (entry.count, entry.err));
                    continue;
                };
                if (floor, evicted_key) >= (entry.count, entry.key) {
                    continue;
                }
                self.counters.remove(&evicted_key);
                self.counters.insert(
                    entry.key,
                    (
                        entry.count.saturating_add(floor),
                        entry.err.saturating_add(floor),
                    ),
                );
            }
        }

        fn entries(&self) -> Vec<HitterEntry> {
            let mut out: Vec<HitterEntry> = self
                .counters
                .iter()
                .map(|(&key, &(count, err))| HitterEntry { key, count, err })
                .collect();
            out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
            out
        }
    }

    /// A stream whose weights come from a handful of values, so counts tie
    /// often, over a key universe far above the sketch capacity.
    fn tied_stream(seed: u64, len: usize, universe: u64) -> Vec<(u64, u64)> {
        (0..len)
            .map(|i| {
                let key = derive_seed(seed, 3, i as u64) % universe;
                let weight = [0, 1, 1, 2, 5, 5][(derive_seed(seed, 5, i as u64) % 6) as usize];
                (key, weight)
            })
            .collect()
    }

    #[test]
    fn indexed_eviction_matches_linear_scan_oracle() {
        for (seed, capacity, universe) in [
            (1u64, 1usize, 8u64),
            (2, 4, 16),
            (3, 16, 64),
            (4, 64, 1 << 40),
        ] {
            let mut pairs = Vec::new();
            for shard in 0..4u64 {
                let mut fast = SpaceSaving::new(capacity);
                let mut oracle = LinearSpaceSaving::new(capacity);
                for (key, weight) in tied_stream(seed * 10 + shard, 600, universe) {
                    fast.observe(key, weight);
                    oracle.observe(key, weight);
                    assert_eq!(fast.entries(), oracle.entries(), "seed {seed}: observe");
                    assert_eq!(fast.total(), oracle.total);
                }
                pairs.push((fast, oracle));
            }
            let mut merged = SpaceSaving::new(capacity);
            let mut merged_oracle = LinearSpaceSaving::new(capacity);
            for (fast, oracle) in &pairs {
                merged.merge(fast);
                merged_oracle.merge(oracle);
                assert_eq!(
                    merged.entries(),
                    merged_oracle.entries(),
                    "seed {seed}: merge"
                );
                assert_eq!(merged.total(), merged_oracle.total);
            }
            // Every request id is new in the fleet: each observe past the
            // budget evicts.
            let mut fast = SpaceSaving::new(capacity);
            let mut oracle = LinearSpaceSaving::new(capacity);
            for i in 0..300u64 {
                let weight = 1 + i % 3;
                fast.observe(1_000 + i, weight);
                oracle.observe(1_000 + i, weight);
                assert_eq!(fast.entries(), oracle.entries(), "seed {seed}: fresh keys");
            }
        }
    }

    /// Deterministic pseudo-random weighted stream: zipf-ish key mass so
    /// some keys are genuine heavy hitters.
    fn stream(seed: u64, len: usize, universe: u64) -> Vec<(u64, u64)> {
        (0..len)
            .map(|i| {
                let r = derive_seed(seed, 7, i as u64);
                // Bias toward small keys: the square fold concentrates mass.
                let key = (r % universe) * (r % universe) / universe % universe;
                let weight = 1 + derive_seed(seed, 11, i as u64) % 1_000;
                (key, weight)
            })
            .collect()
    }

    fn exact(stream: &[(u64, u64)]) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for &(key, weight) in stream {
            *m.entry(key).or_insert(0u64) += weight;
        }
        m
    }

    #[test]
    fn bounds_hold_against_exact_oracle() {
        for seed in [1u64, 9, 42, 77] {
            let data = stream(seed, 4_000, 512);
            let truth = exact(&data);
            let mut sketch = SpaceSaving::new(32);
            for &(key, weight) in &data {
                sketch.observe(key, weight);
            }
            let total: u64 = truth.values().sum();
            assert_eq!(sketch.total(), total);
            for entry in sketch.entries() {
                let t = truth.get(&entry.key).copied().unwrap_or(0);
                assert!(t <= entry.count, "seed {seed}: under-estimate");
                assert!(
                    entry.count - entry.err <= t,
                    "seed {seed}: error bound violated for key {}",
                    entry.key
                );
            }
            // Space-saving coverage: every key heavier than total/capacity
            // must be tracked.
            let threshold = total / 32;
            for (&key, &t) in &truth {
                if t > threshold {
                    assert!(
                        sketch.entries().iter().any(|e| e.key == key),
                        "seed {seed}: heavy key {key} ({t} > {threshold}) untracked"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_bounds_hold_against_exact_oracle() {
        for seed in [3u64, 21] {
            let a = stream(seed, 2_500, 400);
            let b = stream(seed.wrapping_add(1), 2_500, 400);
            let mut sa = SpaceSaving::new(24);
            let mut sb = SpaceSaving::new(24);
            for &(k, w) in &a {
                sa.observe(k, w);
            }
            for &(k, w) in &b {
                sb.observe(k, w);
            }
            sa.merge(&sb);
            let mut truth = exact(&a);
            for (k, w) in exact(&b) {
                *truth.entry(k).or_insert(0) += w;
            }
            let total: u64 = truth.values().sum();
            assert_eq!(sa.total(), total);
            for entry in sa.entries() {
                let t = truth.get(&entry.key).copied().unwrap_or(0);
                assert!(t <= entry.count, "seed {seed}: merged under-estimate");
                assert!(
                    entry.count - entry.err <= t,
                    "seed {seed}: merged error bound violated"
                );
            }
        }
    }

    #[test]
    fn replay_is_byte_identical() {
        let data = stream(5, 3_000, 300);
        let mut s1 = SpaceSaving::new(16);
        let mut s2 = SpaceSaving::new(16);
        for &(k, w) in &data {
            s1.observe(k, w);
            s2.observe(k, w);
        }
        assert_eq!(s1, s2);
        assert_eq!(s1.entries(), s2.entries());
    }

    #[test]
    fn equal_counters_reached_in_different_orders_compare_equal() {
        // The same counters, observed in opposite orders, then with one
        // eviction each taken by a different route: the heap layouts
        // differ, the sketches do not.
        let ops = [(7u64, 3u64), (2, 9), (5, 1), (11, 4), (3, 6), (2, 2)];
        let mut forward = SpaceSaving::new(8);
        let mut backward = SpaceSaving::new(8);
        for &(key, weight) in &ops {
            forward.observe(key, weight);
        }
        for &(key, weight) in ops.iter().rev() {
            backward.observe(key, weight);
        }
        assert_eq!(forward, backward);
        let mut merged = SpaceSaving::new(8);
        merged.merge(&backward);
        assert_eq!(merged, forward);

        let mut full_a = SpaceSaving::new(2);
        full_a.observe(1, 5);
        full_a.observe(2, 4);
        full_a.observe(3, 1); // evicts key 2 (count 4): key 3 gets 5, err 4
        let mut full_b = SpaceSaving::new(2);
        full_b.observe(3, 1);
        full_b.observe(1, 5);
        full_b.observe(3, 4); // no eviction: key 3 reaches 5 by its own weight
        assert_ne!(full_a, full_b, "errors differ, so the sketches do");
        let mut full_c = SpaceSaving::new(2);
        full_c.observe(2, 4);
        full_c.observe(1, 5);
        full_c.observe(3, 1);
        assert_eq!(full_a, full_c);
        assert_ne!(SpaceSaving::new(8), SpaceSaving::new(9), "capacity counts");
    }

    #[test]
    fn entries_are_canonically_ordered() {
        let mut sketch = SpaceSaving::new(8);
        for &(k, w) in &[(9u64, 50u64), (2, 50), (5, 80), (7, 10)] {
            sketch.observe(k, w);
        }
        let entries = sketch.entries();
        let ranks: Vec<(u64, u64)> = entries.iter().map(|e| (e.count, e.key)).collect();
        let mut sorted = ranks.clone();
        sorted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        assert_eq!(ranks, sorted);
        // Equal counts break ties by ascending key.
        assert_eq!(entries[1].key, 2);
        assert_eq!(entries[2].key, 9);
    }

    #[test]
    fn eviction_is_deterministic_min_count_key() {
        let mut sketch = SpaceSaving::new(2);
        sketch.observe(10, 5);
        sketch.observe(20, 5); // tie on count: key 10 is the min victim
        sketch.observe(30, 1);
        let entries = sketch.entries();
        assert_eq!(entries.len(), 2);
        assert!(entries.iter().any(|e| e.key == 20));
        let newcomer = entries.iter().find(|e| e.key == 30).expect("admitted");
        assert_eq!(newcomer.count, 6); // floor 5 + weight 1
        assert_eq!(newcomer.err, 5);
    }

    #[test]
    fn disjoint_shard_merge_is_exact_for_tracked_keys() {
        // Fleet shards tag disjoint request ids, so shard sketches merging
        // in canonical order never collide and tracked counts stay exact
        // while the sketches are under budget.
        let mut sa = SpaceSaving::new(64);
        let mut sb = SpaceSaving::new(64);
        for i in 0..20u64 {
            sa.observe(i, 100 + i);
            sb.observe(1_000 + i, 200 + i);
        }
        sa.merge(&sb);
        assert_eq!(sa.len(), 40);
        for entry in sa.entries() {
            assert_eq!(entry.err, 0);
        }
    }
}
