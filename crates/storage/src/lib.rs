//! # hsdp-storage
//!
//! The storage substrate of the reproduction: the tiered caches behind the
//! "distributed caching and file system layers" the paper's platforms sit
//! on (Section 2.2), plus the provisioning model behind Table 1.
//!
//! - [`tier`] — RAM/SSD/HDD device models and per-tier statistics.
//! - [`cache`] — pluggable byte-capacity cache policies (LRU, LFU, 2Q).
//! - [`tiered`] — a three-tier read-through / write-through stack.
//! - [`provision`](mod@provision) — sizing tiers from zipfian hit-rate targets,
//!   reproducing Table 1's storage-to-storage ratios.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod predictive;
pub mod provision;
pub mod tier;
pub mod tiered;

pub use cache::{CachePolicy, LfuCache, LruCache, PolicyKind, TwoQCache};
pub use predictive::PredictiveCache;
pub use provision::{provision, PlatformClass, ProvisionSpec, Provisioned, ZipfWorkingSet};
pub use tier::{TierKind, TierSpec, TierStats};
pub use tiered::TieredStore;
