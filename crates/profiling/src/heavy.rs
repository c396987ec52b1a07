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
//! ordered — no hash iteration, no RNG), and [`SpaceSaving::entries`]
//! reports in canonical `(count desc, key asc)` order. Replaying the same
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

use std::collections::BTreeMap;

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

/// A deterministic space-saving top-k sketch over weighted `u64` keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    capacity: usize,
    total: u64,
    counters: BTreeMap<u64, (u64, u64)>, // key -> (count, err)
}

impl SpaceSaving {
    /// Creates a sketch tracking at most `capacity` keys. A zero capacity
    /// is clamped to one so the sketch always tracks something.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SpaceSaving {
            capacity: capacity.max(1),
            total: 0,
            counters: BTreeMap::new(),
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
        self.counters.len()
    }

    /// True when no weight has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Adds `weight` to `key`'s counter. If the sketch is full and `key`
    /// is untracked, the minimum `(count, key)` counter is evicted and its
    /// count becomes the new key's error bound.
    pub fn observe(&mut self, key: u64, weight: u64) {
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
                // The incoming counter cannot beat the current minimum;
                // absorbing it into an eviction would only inflate error.
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

    /// The tracked counters in canonical order: count descending, key
    /// ascending — the order every report and artifact emits.
    #[must_use]
    pub fn entries(&self) -> Vec<HitterEntry> {
        let mut out: Vec<HitterEntry> = self
            .counters
            .iter()
            .map(|(&key, &(count, err))| HitterEntry { key, count, err })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }

    /// The minimum `(count, key)` counter — the deterministic eviction
    /// victim. `None` only when no keys are tracked (callers reach here
    /// with `len() >= capacity >= 1`, but degrade to a plain insert
    /// rather than aborting if that invariant ever breaks).
    fn min_counter(&self) -> Option<(u64, u64)> {
        self.counters
            .iter()
            .map(|(&key, &(count, _))| (count, key))
            .min()
            .map(|(count, key)| (key, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_rng::derive_seed;
    use std::collections::HashMap;

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
