//! Storage tier models: RAM, SSD, HDD device characteristics.

use hsdp_simcore::time::SimDuration;

/// The three storage tiers of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TierKind {
    /// DRAM read caches / write buffers.
    Ram,
    /// Flash cache.
    Ssd,
    /// Spinning disk capacity tier.
    Hdd,
}

impl TierKind {
    /// The tiers from fastest to slowest.
    pub const ALL: [TierKind; 3] = [TierKind::Ram, TierKind::Ssd, TierKind::Hdd];
}

impl std::fmt::Display for TierKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            TierKind::Ram => "RAM",
            TierKind::Ssd => "SSD",
            TierKind::Hdd => "HDD",
        };
        f.write_str(name)
    }
}

/// Device characteristics of one tier. A tier's size lives in the cache
/// policy that fills it; the HDD capacity tier holds everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierSpec {
    /// Fixed per-access latency.
    pub access_latency: SimDuration,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl TierSpec {
    /// Time to service an access of `bytes` bytes: latency + transfer.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is not positive. [`TierSpec::typical`] always
    /// builds a positive one; a struct literal must set one too.
    #[must_use]
    pub fn access_time(&self, bytes: u64) -> SimDuration {
        assert!(self.bandwidth > 0.0, "tier bandwidth must be positive");
        // audit: allow(cast, u64 byte count to f64 for bandwidth division is exact below 2^53)
        self.access_latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Representative defaults per tier kind: DRAM ~100 ns / 20 GB/s,
    /// SSD ~80 us / 2 GB/s, HDD ~8 ms / 200 MB/s.
    #[must_use]
    pub fn typical(kind: TierKind) -> TierSpec {
        match kind {
            TierKind::Ram => TierSpec {
                access_latency: SimDuration::from_nanos(100),
                bandwidth: 20e9,
            },
            TierKind::Ssd => TierSpec {
                access_latency: SimDuration::from_micros(80),
                bandwidth: 2e9,
            },
            TierKind::Hdd => TierSpec {
                access_latency: SimDuration::from_millis(8),
                bandwidth: 200e6,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_order_fastest_first() {
        assert!(TierKind::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn access_time_scales_with_size() {
        let spec = TierSpec::typical(TierKind::Ssd);
        let small = spec.access_time(4 * 1024);
        let large = spec.access_time(4 * 1024 * 1024);
        assert!(large > small);
        // 4 MiB at 2 GB/s ~ 2.1 ms dominated by transfer.
        assert!(large.as_secs_f64() > 1.9e-3);
    }

    #[test]
    fn typical_latency_ordering() {
        let ram = TierSpec::typical(TierKind::Ram).access_time(4096);
        let ssd = TierSpec::typical(TierKind::Ssd).access_time(4096);
        let hdd = TierSpec::typical(TierKind::Hdd).access_time(4096);
        assert!(ram < ssd && ssd < hdd);
    }
}
