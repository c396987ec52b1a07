//! Deterministic request identity for per-request tail attribution.
//!
//! The paper's profilers (GWP, Dapper) aggregate over the whole fleet and
//! cannot say whether the datacenter-tax mix looks different for the
//! slowest requests. To answer that we give every traffic query a
//! [`RequestId`] that is a pure function of its position in the workload —
//! `(platform, shard, index)` — so identity is byte-identical at any
//! parallelism and under schedule perturbation, with no global counter to
//! race on.
//!
//! The id packs into one `u64` so it can ride on every query execution
//! without allocation:
//!
//! ```text
//! bits 56..64   platform code + 1   (so any tagged id is nonzero)
//! bits 40..56   shard index         (16 bits)
//! bits  0..40   request index       (40 bits, per shard per platform)
//! ```
//!
//! `RequestId(0)` is reserved as [`RequestId::UNTAGGED`]: background work
//! (preloads, compaction outside a query, engine setup) carries it and is
//! excluded from per-request attribution.

use std::fmt;

use crate::category::Platform;

/// Identity of one traffic request, stable across schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct RequestId(pub u64);

/// Bit width of the per-shard request index.
const INDEX_BITS: u32 = 40;
/// Bit width of the shard field.
const SHARD_BITS: u32 = 16;

impl RequestId {
    /// Work not attributable to any single request (preload, engine setup).
    pub const UNTAGGED: RequestId = RequestId(0);

    /// Requests one shard can name: per-shard indices run
    /// `0..INDEX_LIMIT`. A workload that puts more on a shard must be
    /// refused before it runs, or two of its requests would share an id.
    pub const INDEX_LIMIT: u64 = 1 << INDEX_BITS;

    /// Packs `(platform, shard, index)` into a tagged id.
    ///
    /// `index` is the request's position in the platform's canonical
    /// traffic stream for that shard, which makes the id deterministic by
    /// construction.
    #[must_use]
    pub fn tag(platform: Platform, shard: usize, index: usize) -> RequestId {
        debug_assert!(
            (index as u64) < Self::INDEX_LIMIT && (shard as u64) < 1 << SHARD_BITS,
            "request {index} of shard {shard} does not fit a request id"
        );
        let code = match platform {
            Platform::Spanner => 1u64,
            Platform::BigTable => 2,
            Platform::BigQuery => 3,
        };
        let shard = shard as u64 & ((1 << SHARD_BITS) - 1);
        let index = index as u64 & ((1 << INDEX_BITS) - 1);
        RequestId(code << (SHARD_BITS + INDEX_BITS) | shard << INDEX_BITS | index)
    }

    /// True when this id names an actual traffic request.
    #[must_use]
    pub fn is_tagged(self) -> bool {
        self.0 != 0
    }

    /// The platform field, if tagged.
    #[must_use]
    pub fn platform(self) -> Option<Platform> {
        match self.0 >> (SHARD_BITS + INDEX_BITS) {
            1 => Some(Platform::Spanner),
            2 => Some(Platform::BigTable),
            3 => Some(Platform::BigQuery),
            _ => None,
        }
    }

    /// The shard field (meaningless for untagged ids).
    #[must_use]
    pub fn shard(self) -> u64 {
        self.0 >> INDEX_BITS & ((1 << SHARD_BITS) - 1)
    }

    /// The per-shard request index (meaningless for untagged ids).
    #[must_use]
    pub fn index(self) -> u64 {
        self.0 & ((1 << INDEX_BITS) - 1)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.platform() {
            Some(platform) => {
                let name = match platform {
                    Platform::Spanner => "spanner",
                    Platform::BigTable => "bigtable",
                    Platform::BigQuery => "bigquery",
                };
                write!(f, "{name}/s{:02}/q{:07}", self.shard(), self.index())
            }
            None => f.write_str("untagged"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_ids_are_nonzero_and_roundtrip() {
        for platform in Platform::ALL {
            for (shard, index) in [(0usize, 0usize), (3, 41), (65_535, (1 << 40) - 1)] {
                let id = RequestId::tag(platform, shard, index);
                assert!(id.is_tagged());
                assert_eq!(id.platform(), Some(platform));
                assert_eq!(id.shard(), shard as u64);
                assert_eq!(id.index(), index as u64);
            }
        }
    }

    #[test]
    fn untagged_is_zero_and_default() {
        assert_eq!(RequestId::UNTAGGED.0, 0);
        assert_eq!(RequestId::default(), RequestId::UNTAGGED);
        assert!(!RequestId::UNTAGGED.is_tagged());
        assert_eq!(RequestId::UNTAGGED.platform(), None);
    }

    #[test]
    fn ids_order_by_platform_then_shard_then_index() {
        let a = RequestId::tag(Platform::Spanner, 9, 9);
        let b = RequestId::tag(Platform::BigTable, 0, 0);
        let c = RequestId::tag(Platform::BigTable, 0, 1);
        let d = RequestId::tag(Platform::BigTable, 1, 0);
        assert!(a < b && b < c && c < d);
    }

    #[test]
    fn display_is_human_readable() {
        let id = RequestId::tag(Platform::Spanner, 3, 42);
        assert_eq!(id.to_string(), "spanner/s03/q0000042");
        assert_eq!(RequestId::UNTAGGED.to_string(), "untagged");
    }
}
