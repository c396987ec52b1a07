//! # hsdp-profiling
//!
//! The fleet-profiling pipeline of the paper's methodology sections:
//!
//! - [`gwp`] — a GWP-style sampling profiler over labeled CPU work
//!   (Section 5.1), producing the Figures 3–6 category breakdowns.
//! - [`e2e`] — aggregation of Dapper-style trace decompositions into the
//!   Figure 2 query groups (Section 4).
//! - [`microarch`] — a CPI-stack model fitted to the paper's Tables 6–7,
//!   predicting IPC from MPKI statistics.
//! - [`report`] — text-table rendering for the regeneration benches.
//! - [`crosscheck`] — agreement between the GWP cycle view (metered CPU)
//!   and the telemetry crate's critical-path walk, plus the Wilson
//!   interval that bounds a sampled share.
//! - [`stacks`] — deterministic stack-tree profiles with collapsed-stack
//!   (flamegraph) and pprof export.
//! - [`history`] — per-commit profile history: an append-only, checksummed
//!   snapshot store with sliding-window regression and anomaly detection
//!   (continuous profiling over everything the repo measures).
//! - [`heavy`] — a deterministic space-saving top-k sketch attributing
//!   exact-nanosecond CPU and tax-category weight to individual requests
//!   (the heavy-hitter half of tail attribution).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod crosscheck;
pub mod e2e;
pub mod gwp;
pub mod heavy;
pub mod history;
pub mod microarch;
pub mod report;
pub mod stacks;

pub use crosscheck::{agree, wilson_interval, PathAgreement};
pub use e2e::{classify, figure2, Figure2, Figure2Row};
pub use gwp::{CycleProfile, GwpProfiler};
pub use heavy::{HitterEntry, SpaceSaving};
pub use history::{
    detect_anomalies, regressions_since, DriftReport, DriftThresholds, HistoryStore,
    ProfileSnapshot, QuantileRow, RegressionReport, SnapshotMeta, SustainedDrift,
};
pub use microarch::{fit_cpi_model, regenerate_tables, CalibrationRow, CpiModel};
pub use stacks::{ShareDelta, StackProfile, StackWeight};
