//! Randomized tests over every cache policy: capacity safety, hit/miss
//! consistency, and zipf hit-rate sanity.
//!
//! Formerly `proptest` strategies; now driven by the in-repo deterministic
//! PRNG so the workspace stays dependency-free.

use hsdp_rng::{Rng, StdRng};
use hsdp_storage::cache::{build_cache, PolicyKind};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Lru,
    PolicyKind::Lfu,
    PolicyKind::TwoQ,
    PolicyKind::Predictive,
];

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Access(u64),
    Remove(u64),
}

fn arb_ops(rng: &mut StdRng) -> Vec<Op> {
    let len = rng.random_range(1..200usize);
    (0..len)
        .map(|_| match rng.random_range(0..3u8) {
            0 => Op::Insert(rng.random_range(0u64..64), rng.random_range(1u64..40)),
            1 => Op::Access(rng.random_range(0u64..64)),
            _ => Op::Remove(rng.random_range(0u64..64)),
        })
        .collect()
}

/// Capacity is never exceeded and bookkeeping never underflows, for any
/// operation sequence, under every policy.
#[test]
fn capacity_and_bookkeeping_invariants() {
    let mut rng = StdRng::seed_from_u64(0xCAFE1);
    for _ in 0..48 {
        let ops = arb_ops(&mut rng);
        let capacity = rng.random_range(10u64..200);
        for policy in POLICIES {
            let mut cache = build_cache(policy, capacity);
            for op in &ops {
                match *op {
                    Op::Insert(k, s) => cache.insert(k, s),
                    Op::Access(k) => {
                        let hit = cache.access(k);
                        assert_eq!(hit, cache.contains(k), "{policy:?}");
                    }
                    Op::Remove(k) => cache.remove(k),
                }
                assert!(cache.used_bytes() <= cache.capacity(), "{policy:?}");
                if cache.is_empty() {
                    assert_eq!(cache.len(), 0, "{policy:?}");
                } else {
                    assert_ne!(cache.len(), 0, "{policy:?}");
                }
            }
        }
    }
}

/// A removed key is gone under every policy.
#[test]
fn remove_is_definitive() {
    let mut rng = StdRng::seed_from_u64(0xCAFE2);
    for _ in 0..256 {
        let key = rng.random_range(0u64..1000);
        let size = rng.random_range(1u64..50);
        for policy in POLICIES {
            let mut cache = build_cache(policy, 1_000);
            cache.insert(key, size);
            cache.remove(key);
            assert!(!cache.contains(key), "{policy:?}");
            assert_eq!(cache.used_bytes(), 0, "{policy:?}");
        }
    }
}

/// On a zipf-skewed stream with capacity for the hot set, every policy
/// should achieve a solid steady-state hit rate.
#[test]
fn zipf_hit_rates_are_reasonable() {
    use hsdp_workload::keys::Zipf;

    let zipf = Zipf::new(500, 0.99);
    for policy in POLICIES {
        let mut cache = build_cache(policy, 40 * 16); // room for ~40 hot keys
        let mut rng = StdRng::seed_from_u64(11);
        // Warm-up.
        for _ in 0..2_000 {
            let key = zipf.sample_rank(&mut rng);
            if !cache.access(key) {
                cache.insert(key, 16);
            }
        }
        // Measure.
        let mut hits = 0;
        let total = 4_000;
        for _ in 0..total {
            let key = zipf.sample_rank(&mut rng);
            if cache.access(key) {
                hits += 1;
            } else {
                cache.insert(key, 16);
            }
        }
        let rate = f64::from(hits) / f64::from(total);
        assert!(rate > 0.45, "{policy:?}: zipf hit rate {rate}");
    }
}
