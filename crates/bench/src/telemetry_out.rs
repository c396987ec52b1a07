//! Renders the fleet telemetry artifacts — `trace.json` and
//! `critical_path.json` (the merged registry renders `metrics.json` itself)
//! — from an instrumented fleet run; [`crate::FleetRun::bundle`] assembles
//! and self-validates them.
//!
//! The artifact set is the paper's observability stack made exportable:
//! merged performance counters (registry), Dapper-style spans in Chrome
//! trace-event form (one Perfetto process per platform, one thread lane per
//! shard), and per-platform critical-path attributions next to the interval
//! decomposition they must cohere with. All three are byte-identical across
//! `parallelism` settings and schedule perturbations.

use hsdp_core::category::Platform;
use hsdp_platforms::runner::{platform_key, ShardRun};
use hsdp_profiling::crosscheck;
use hsdp_simcore::time::SimDuration;
use hsdp_telemetry::critical_path::PathCategory;
use hsdp_telemetry::export::TraceGroup;

/// One Perfetto lane per shard: the platform is the "process", the shard
/// its "thread", so the fleet's concurrent replicas land side by side.
#[must_use]
pub fn trace_groups(runs: &[ShardRun]) -> Vec<TraceGroup> {
    runs.iter()
        .map(|run| TraceGroup {
            process_name: platform_key(run.platform).to_string(),
            // Platform discriminants are stable; pid 0 is reserved by some
            // viewers, so lanes start at 1.
            pid: run.platform as u32 + 1,
            // audit: allow(cast, shard indices are small (fleet shard counts), far below u32::MAX)
            tid: run.shard as u32,
            thread_name: format!("shard {}", run.shard),
            spans: run
                .executions
                .iter()
                .flat_map(|e| e.spans.iter().cloned())
                .collect(),
        })
        .collect()
}

/// Renders `critical_path.json`: for every platform, the merged
/// critical-path attribution across all its queries, its category
/// fractions (summing to 1.0 ± 1e-9 by construction), and the agreement
/// ratio against the metered CPU that GWP samples from.
#[must_use]
pub fn critical_path_json(runs: &[ShardRun]) -> String {
    let mut out = String::from("{\n  \"schema\": \"hsdp-telemetry-critical-path/1\",\n");
    out.push_str("  \"platforms\": {\n");
    for (i, &platform) in Platform::ALL.iter().enumerate() {
        let report = platform_agreement(runs, platform);
        out.push_str(&format!("    \"{}\": {{\n", platform_key(platform)));
        out.push_str(&format!(
            "      \"total_ns\": {},\n      \"metered_cpu_ns\": {},\n",
            report.path.total_ns(),
            report.metered_cpu.as_nanos()
        ));
        out.push_str(&format!(
            "      \"path_cpu_over_metered_cpu\": {:.9},\n",
            report.path_cpu_over_metered()
        ));
        out.push_str("      \"categories\": {");
        for (j, (category, ns, fraction)) in report.path.rows().into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        \"{}\": {{\"ns\": {ns}, \"fraction\": {fraction:.9}}}",
                category.name()
            ));
        }
        out.push_str("\n      }\n    }");
        out.push_str(if i + 1 < Platform::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  }\n}\n");
    out
}

/// The three-view agreement report for one platform's executions.
#[must_use]
pub fn platform_agreement(runs: &[ShardRun], platform: Platform) -> crosscheck::PathAgreement {
    crosscheck::agree(
        runs.iter()
            .filter(|run| run.platform == platform)
            .flat_map(|run| run.executions.iter())
            .map(|exec| {
                let metered: SimDuration = exec.cpu_work.iter().map(|item| item.time).sum();
                (exec.spans.as_slice(), metered)
            }),
    )
}

/// A short human-readable summary of the critical-path attribution, for
/// `hsdp summary`.
#[must_use]
pub fn render_summary(runs: &[ShardRun]) -> String {
    let mut out = String::from("critical-path attribution (fraction of wall-clock)\n");
    out.push_str("platform   cpu      io       remote   orch     idle\n");
    for &platform in &Platform::ALL {
        let report = platform_agreement(runs, platform);
        out.push_str(&format!("{:<10}", platform_key(platform)));
        for category in PathCategory::ALL {
            out.push_str(&format!(" {:.4}  ", report.path.fraction(category)));
        }
        out.push('\n');
    }
    out
}
