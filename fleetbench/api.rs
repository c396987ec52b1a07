//! The benchmark's one door into `hsdp`. Every library item the benchmark
//! calls is named here and nowhere else, so a change to the library's public
//! surface touches this file alone.
//!
//! Only the job-level runners (`run_spanner_shard`, `run_bigtable_tablet`,
//! `assemble_bigtable_shard`, `run_bigquery_shard`), the instrumented fleet
//! runner, and the artifact functions are used. The uninstrumented
//! `run_fleet`, the inline `run_bigtable_shard`, the unsharded per-platform
//! wrappers and code private to a bin are deliberately left out.

pub use hsdp_bench::exhibits::fleet_stack_profile;
pub use hsdp_bench::tail::{render_json as render_tail_json, tail_from_parts};
pub use hsdp_bench::telemetry_out::{critical_path_json, platform_agreement, trace_groups};
pub use hsdp_core::category::Platform;
pub use hsdp_platforms::runner::{
    assemble_bigtable_shard, fold_fleet, merge_fleet_metrics, platform_key, platform_plan,
    run_bigquery_shard, run_bigtable_tablet, run_fleet_telemetry, run_spanner_shard, FleetConfig,
    ShardRun,
};
pub use hsdp_platforms::QueryExecution;
pub use hsdp_profiling::e2e::{figure2, Figure2};
pub use hsdp_simcore::time::SimDuration;
pub use hsdp_taxes::crc::Crc32c;
pub use hsdp_taxes::pprof::Profile;
pub use hsdp_telemetry::{chrome_trace_json, MetricsRegistry, PathCategory};

/// GWP sample period of the pprof export, the one `fleet_profile` uses
/// (and the period baked into [`fleet_stack_profile`]).
pub fn stack_sample_period() -> SimDuration {
    SimDuration::from_micros(2)
}
