//! # hsdp-telemetry
//!
//! The fleet-wide observability layer: the paper's entire characterization
//! pipeline *is* observability infrastructure — Dapper RPC traces
//! (Section 4.1), GWP fleet CPU profiles (Section 5.1), and performance
//! counters — and this crate is where those signals become exportable,
//! mergeable, and attributable:
//!
//! - [`registry`] — a low-overhead metrics registry (counters, gauges, and
//!   log-linear latency histograms with a fixed HDR-style bucket layout)
//!   whose per-shard instances merge deterministically and byte-identically
//!   at any `parallelism` setting, matching the determinism guarantee of
//!   `hsdp_simcore::pool`.
//! - [`export`] — span export from `hsdp_rpc` traces to Chrome trace-event
//!   JSON, loadable in Perfetto / `chrome://tracing`, with platform,
//!   category, and shard metadata.
//! - [`critical_path`](mod@critical_path) — the Dapper tree-walk (Section 3): attributes each
//!   trace's wall-clock to the slowest child chain, yielding per-category
//!   critical-path fractions alongside the GWP-style CPU fractions.
//! - [`json`] — a minimal JSON syntax validator so emitted artifacts can be
//!   smoke-checked without external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod critical_path;
pub mod export;
pub mod json;
pub mod registry;

pub use critical_path::{critical_path, CriticalPathBreakdown, PathCategory};
pub use export::{chrome_trace_json, TraceGroup};
pub use registry::{
    category_key, Exemplar, Histogram, HistogramSummary, MetricKey, MetricsRegistry,
};
