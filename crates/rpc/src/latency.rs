//! The RPC latency model: propagation + serialization + transfer, with a
//! deterministic jitter hash so repeated calls vary realistically without
//! threading an RNG through every call site.

use hsdp_simcore::time::SimDuration;

/// Parameters of a network path between two services.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// One-way propagation latency.
    pub base: SimDuration,
    /// Link bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Jitter amplitude as a fraction of the base latency (`0` disables).
    pub jitter_frac: f64,
}

impl LatencyModel {
    /// An intra-cluster path: 50 us base, 5 GB/s, 20% jitter.
    #[must_use]
    pub fn intra_cluster() -> Self {
        LatencyModel {
            base: SimDuration::from_micros(50),
            bandwidth: 5e9,
            jitter_frac: 0.2,
        }
    }

    /// One-way latency for a message of `bytes`, jittered by `seed`.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive.
    #[must_use]
    pub fn one_way(&self, bytes: u64, seed: u64) -> SimDuration {
        assert!(self.bandwidth > 0.0, "bandwidth must be positive");
        // audit: allow(cast, u64 byte count to f64 for bandwidth division is exact below 2^53)
        let transfer = SimDuration::from_secs_f64(bytes as f64 / self.bandwidth);
        let jitter = if self.jitter_frac > 0.0 {
            // splitmix64 finalizer: uniform in [0, jitter_frac).
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            self.base.scaled(self.jitter_frac * unit)
        } else {
            SimDuration::ZERO
        };
        self.base + transfer + jitter
    }

    /// A full request/response round trip with the given payload sizes.
    #[must_use]
    pub fn round_trip(&self, request_bytes: u64, response_bytes: u64, seed: u64) -> SimDuration {
        self.one_way(request_bytes, seed) + self.one_way(response_bytes, seed ^ 0xdead_beef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_components() {
        let m = LatencyModel {
            base: SimDuration::from_micros(100),
            bandwidth: 1e9,
            jitter_frac: 0.0,
        };
        // 1 MB at 1 GB/s = 1 ms transfer + 100 us base.
        let t = m.one_way(1_000_000, 0);
        assert_eq!(t.as_micros(), 1_100);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = LatencyModel {
            base: SimDuration::from_micros(100),
            bandwidth: 1e12,
            jitter_frac: 0.5,
        };
        let a = m.one_way(0, 42);
        let b = m.one_way(0, 42);
        assert_eq!(a, b, "same seed, same latency");
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..100 {
            let t = m.one_way(0, seed);
            assert!(t >= m.base);
            assert!(t <= m.base + m.base.scaled(0.5));
            distinct.insert(t.as_nanos());
        }
        assert!(distinct.len() > 50, "jitter varies across seeds");
    }

    #[test]
    fn round_trip_exceeds_two_one_ways_base() {
        let m = LatencyModel::intra_cluster();
        let rt = m.round_trip(1024, 4096, 7);
        assert!(rt >= m.base + m.base);
    }
}
