//! # hsdp-core
//!
//! The analytical heart of the *Profiling Hyperscale Big Data Processing*
//! (ISCA 2023) reproduction: the cycle-accounting taxonomy of the paper's
//! profiling study (Sections 4–5) and the **sea-of-accelerators analytical
//! model** with its limit studies (Section 6).
//!
//! ## Layout
//!
//! - [`units`] — `Seconds` / `Bytes` / `Bandwidth` newtypes.
//! - [`audit`](mod@audit) — redundant invariant checks over breakdowns, populations,
//!   and speedup curves, wired into `debug_assert!` hooks.
//! - [`category`] — platforms and the core-compute / datacenter-tax /
//!   system-tax taxonomy (Tables 2–5).
//! - [`component`] — [`component::CpuBreakdown`]: where CPU time goes.
//! - [`model`] — Equations 1–2: end-to-end time from disjoint CPU and
//!   dependency phases, before and after acceleration.
//! - [`accel`] — accelerator specs: speedup, setup, placement, payload
//!   (Equations 7–8).
//! - [`plan`] — [`plan::AccelerationPlan`]: sync/async/chained composition
//!   of `t'_cpu` (Equations 3–6 and 9); the invocation model sets Eq. 5's
//!   `g_sub_i` for every component.
//! - [`chained`] — the chained-execution extension (Equations 10–12).
//! - [`profile`] — query populations, Figure 2 groups, platform profiles.
//! - [`request`] — deterministic per-request identity for tail attribution.
//! - [`stack`] — interned call-frame paths and charge sites for stack-aware
//!   GWP profiling.
//! - [`hash`] — a one-multiply hasher for keys the program generates.
//! - [`study`] — the limit studies behind Figures 9, 10, 13, 14, 15.
//! - [`paper`] — every published constant, plus calibrated synthetic query
//!   populations.
//!
//! ## Example
//!
//! Evaluate the paper's headline experiment — 64x lockstep acceleration of
//! the Section 6.2 component set — on the calibrated Spanner population:
//!
//! ```
//! use hsdp_core::accel::Speedup;
//! use hsdp_core::category::Platform;
//! use hsdp_core::paper;
//! use hsdp_core::plan::{AccelerationPlan, InvocationModel};
//!
//! let population = paper::query_population(Platform::Spanner);
//! let plan = AccelerationPlan::uniform(
//!     paper::accelerated_categories(Platform::Spanner),
//!     Speedup::new(64.0)?,
//!     InvocationModel::Synchronous,
//! )?;
//!
//! // With dependencies retained, hardware-only acceleration is bounded ~2x;
//! // removing IO and remote work (co-design) unlocks order-of-magnitude
//! // per-query peaks.
//! let bounded = population.aggregate_speedup(&plan);
//! let peak = population.peak_codesign_speedup(&plan);
//! assert!(bounded < 3.0);
//! assert!(peak > 5.0);
//! # Ok::<(), hsdp_core::error::ModelError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accel;
pub mod audit;
pub mod category;
pub mod chained;
pub mod component;
pub mod error;
pub mod hash;
pub mod model;
pub mod paper;
pub mod plan;
pub mod profile;
pub mod request;
pub mod stack;
pub mod study;
pub mod units;

pub use accel::{AcceleratorSpec, Placement, Speedup};
pub use audit::{audit, AuditFailure, Violation};
pub use category::{BroadCategory, CoreComputeOp, CpuCategory, DatacenterTax, Platform, SystemTax};
pub use component::CpuBreakdown;
pub use error::ModelError;
pub use model::QueryPhases;
pub use plan::{AccelerationPlan, InvocationModel};
pub use profile::{QueryGroup, QueryPopulation, QueryRecord};
pub use request::RequestId;
pub use units::{Bandwidth, Bytes, Seconds};
