//! # hsdp — Profiling Hyperscale Big Data Processing
//!
//! A production-quality Rust reproduction of *Profiling Hyperscale Big Data
//! Processing* (Gonzalez et al., ISCA 2023): three simulated hyperscale
//! data-processing platforms, a Dapper/GWP-style profiling pipeline, and
//! the sea-of-accelerators analytical model with its full limit-study
//! suite.
//!
//! This facade re-exports every workspace crate; [`fleet`] is the glue that
//! wires the platform simulators into the profiling pipeline (one
//! instrumented fleet run, and its per-platform profiled view).
//!
//! ## Quickstart
//!
//! ```
//! use hsdp::core::accel::Speedup;
//! use hsdp::core::category::Platform;
//! use hsdp::core::paper;
//! use hsdp::core::plan::{AccelerationPlan, InvocationModel};
//!
//! // The paper's headline experiment: 64x lockstep acceleration of the
//! // Section 6.2 component set over the Spanner query population.
//! let population = paper::query_population(Platform::Spanner);
//! let plan = AccelerationPlan::uniform(
//!     paper::accelerated_categories(Platform::Spanner),
//!     Speedup::new(64.0)?,
//!     InvocationModel::Synchronous,
//! )?;
//! let bounded = population.aggregate_speedup(&plan);
//! assert!(bounded > 1.5 && bounded < 3.0); // ~2.0x with deps retained
//! # Ok::<(), hsdp::core::error::ModelError>(())
//! ```

#![forbid(unsafe_code)]

pub use hsdp_accelsim as accelsim;
pub use hsdp_bench::fleet;
pub use hsdp_core as core;
pub use hsdp_platforms as platforms;
pub use hsdp_profiling as profiling;
pub use hsdp_rng as rng;
pub use hsdp_rpc as rpc;
pub use hsdp_simcore as simcore;
pub use hsdp_storage as storage;
pub use hsdp_taxes as taxes;
pub use hsdp_workload as workload;
