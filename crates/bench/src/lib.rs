//! # hsdp-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! has a regeneration function here, consumed by the Criterion benches
//! (`benches/`) and `hsdp figures`. Each function returns the rendered
//! exhibit as text so benches can both print and time it. [`FleetRun`] is
//! the one instrumented fleet run every `hsdp` artifact is derived from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhibits;
pub mod fleet;
pub mod harness;
pub mod tail;
pub mod telemetry_out;

pub use exhibits::*;
pub use fleet::FleetRun;
