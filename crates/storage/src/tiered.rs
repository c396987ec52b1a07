//! The tiered store: a RAM cache over an SSD cache over HDD capacity.
//!
//! Models the storage stack under one storage server: reads probe RAM, then
//! SSD, then fall through to HDD, filling the faster tiers on the way back
//! (read-through, write-through-to-HDD with cache fill). Every access
//! returns the simulated service time so the platforms can charge IO time.

use hsdp_simcore::time::SimDuration;

use crate::cache::{build_cache, CachePolicy, PolicyKind};
use crate::tier::{TierKind, TierSpec};

/// Outcome of one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The tier that served the data.
    pub served_by: TierKind,
    /// Total simulated service time (probes + transfer + fills).
    pub latency: SimDuration,
}

/// A three-tier storage stack.
#[derive(Debug)]
pub struct TieredStore {
    ram_spec: TierSpec,
    ssd_spec: TierSpec,
    hdd_spec: TierSpec,
    ram: Box<dyn CachePolicy + Send>,
    ssd: Box<dyn CachePolicy + Send>,
}

impl TieredStore {
    /// Builds a store with typical device characteristics, the given tier
    /// capacities, and one cache policy for both cache tiers.
    #[must_use]
    pub fn new(ram_bytes: u64, ssd_bytes: u64, hdd_bytes: u64, policy: PolicyKind) -> Self {
        TieredStore {
            ram_spec: TierSpec::typical(TierKind::Ram, ram_bytes),
            ssd_spec: TierSpec::typical(TierKind::Ssd, ssd_bytes),
            hdd_spec: TierSpec::typical(TierKind::Hdd, hdd_bytes),
            ram: build_cache(policy, ram_bytes),
            ssd: build_cache(policy, ssd_bytes),
        }
    }

    /// Reads `bytes` at `key`, returning which tier served it and the
    /// simulated latency. Misses fill the faster tiers (read-through).
    pub fn read(&mut self, key: u64, bytes: u64) -> ReadOutcome {
        if self.ram.access(key) {
            return ReadOutcome {
                served_by: TierKind::Ram,
                latency: self.ram_spec.access_time(bytes),
            };
        }

        if self.ssd.access(key) {
            // Fill RAM on the way back.
            self.ram.insert(key, bytes);
            return ReadOutcome {
                served_by: TierKind::Ssd,
                latency: self.ram_spec.access_time(0) + self.ssd_spec.access_time(bytes),
            };
        }

        // HDD always has the data (capacity tier).
        self.ssd.insert(key, bytes);
        self.ram.insert(key, bytes);
        ReadOutcome {
            served_by: TierKind::Hdd,
            latency: self.ram_spec.access_time(0)
                + self.ssd_spec.access_time(0)
                + self.hdd_spec.access_time(bytes),
        }
    }

    /// Writes `bytes` at `key`: lands in the RAM write buffer and is charged
    /// the HDD persistence cost (write-through), matching the synchronously
    /// replicated durability the platforms require.
    pub fn write(&mut self, key: u64, bytes: u64) -> SimDuration {
        self.ram.insert(key, bytes);
        self.ram_spec.access_time(bytes) + self.hdd_spec.access_time(bytes)
    }

    /// Writes `bytes` at `key` with SSD-class persistence: sequential log
    /// and SSTable writes land on flash, not the HDD capacity tier (they
    /// reach HDD later via background migration the queries never wait on).
    pub fn write_fast(&mut self, key: u64, bytes: u64) -> SimDuration {
        self.ram.insert(key, bytes);
        self.ssd.insert(key, bytes);
        self.ram_spec.access_time(bytes) + self.ssd_spec.access_time(bytes)
    }

    /// Marks a key as cached (RAM + SSD) without charging IO time — used
    /// when freshly written data passes through the write path's buffers
    /// (e.g. compaction output that is immediately hot).
    pub fn warm(&mut self, key: u64, bytes: u64) {
        self.ram.insert(key, bytes);
        self.ssd.insert(key, bytes);
    }

    /// Invalidates a key everywhere (e.g. post-compaction).
    pub fn invalidate(&mut self, key: u64) {
        self.ram.remove(key);
        self.ssd.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TieredStore {
        TieredStore::new(1000, 10_000, 1_000_000, PolicyKind::Lru)
    }

    #[test]
    fn cold_read_comes_from_hdd_then_warms() {
        let mut s = store();
        let first = s.read(1, 100);
        assert_eq!(first.served_by, TierKind::Hdd);
        let second = s.read(1, 100);
        assert_eq!(second.served_by, TierKind::Ram);
        assert!(second.latency < first.latency);
    }

    #[test]
    fn ram_eviction_falls_back_to_ssd() {
        let mut s = store();
        s.read(1, 800); // warm key 1 into RAM+SSD
                        // Push key 1 out of the 1000-byte RAM with other traffic.
        for k in 2..5 {
            s.read(k, 800);
        }
        let outcome = s.read(1, 800);
        assert_eq!(
            outcome.served_by,
            TierKind::Ssd,
            "evicted from RAM, kept in SSD"
        );
    }

    #[test]
    fn write_charges_persistence() {
        let mut s = store();
        let latency = s.write(9, 100);
        // HDD latency floor is ~8ms.
        assert!(latency.as_secs_f64() > 7e-3);
        // The write buffer serves subsequent reads.
        assert_eq!(s.read(9, 100).served_by, TierKind::Ram);
    }

    #[test]
    fn invalidate_forces_slow_path() {
        let mut s = store();
        s.read(5, 100);
        s.invalidate(5);
        assert_eq!(s.read(5, 100).served_by, TierKind::Hdd);
    }

    #[test]
    fn latency_ordering_ram_ssd_hdd() {
        let mut s = store();
        let hdd = s.read(7, 100).latency;
        let ram = s.read(7, 100).latency;
        s.invalidate(7);
        // Re-warm SSD only: read once from HDD (fills both), evict from RAM.
        s.read(7, 100);
        for k in 100..104 {
            s.read(k, 800);
        }
        let ssd = s.read(7, 100).latency;
        assert!(ram < ssd && ssd < hdd, "ram {ram} ssd {ssd} hdd {hdd}");
    }
}
