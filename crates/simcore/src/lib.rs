//! # hsdp-simcore
//!
//! The simulated clock and the deterministic worker pool every fleet run
//! goes through:
//!
//! - [`time`] — nanosecond [`time::SimTime`] / [`time::SimDuration`], the
//!   unit every span, charge and exhibit is measured in.
//! - [`pool`] — a scoped worker pool plus deterministic shard planning for
//!   thread-count-invariant parallel runs.
//!
//! The platform simulators (`hsdp-platforms`) advance simulated time by
//! charging `costs` constants, not through an event queue; the pool only
//! decides which thread runs which shard, never what a shard computes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pool;
pub mod time;

pub use pool::{Shard, ShardPlan};
pub use time::{SimDuration, SimTime};
