//! # hsdp-bench
//!
//! The experiment harness: every table and figure of the paper's evaluation
//! has a regeneration function in [`exhibits`], each returning the rendered
//! exhibit as text, and `hsdp figures` prints them all. [`FleetRun`] is the
//! one instrumented fleet run every `hsdp` artifact is derived from;
//! [`harness`] holds the `BENCH_fleet.json` records `hsdp bench` writes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exhibits;
pub mod fleet;
pub mod harness;
pub mod tail;
pub mod telemetry_out;

pub use exhibits::*;
pub use fleet::FleetRun;
