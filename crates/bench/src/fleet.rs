//! One instrumented fleet run and every artifact derived from it.
//!
//! The paper reads Dapper traces, GWP profiles and counters as views of one
//! fleet; [`FleetRun`] is that fleet here. It holds the canonical per-shard
//! records and the merged telemetry registry of a single
//! [`run_fleet_telemetry`] call, and each artifact — the profile JSON, the
//! telemetry trio, the stack profile and its exports, the tail report, the
//! history snapshot — is a pure function of it. Every artifact is therefore
//! byte-identical at any `parallelism` and under schedule perturbation.
//!
//! [`profile_fleet`] is the per-platform view the figure exhibits read.

use std::collections::BTreeMap;

use hsdp_core::category::Platform;
use hsdp_core::profile::QueryPopulation;
use hsdp_platforms::runner::{
    fold_fleet, merge_fleet_metrics, run_fleet_telemetry, FleetConfig, ShardRun,
};
use hsdp_platforms::QueryExecution;
use hsdp_profiling::e2e::{figure2, Figure2};
use hsdp_profiling::gwp::{CycleProfile, GwpProfiler};
use hsdp_profiling::history::{ProfileSnapshot, QuantileRow, SnapshotMeta};
use hsdp_profiling::stacks::StackProfile;
use hsdp_simcore::time::SimDuration;
use hsdp_taxes::crc::Crc32c;
use hsdp_taxes::pprof::Profile;
use hsdp_telemetry::{chrome_trace_json, json, MetricsRegistry};

use crate::tail::{self, tail_from_parts, tail_summary, TailReport};
use crate::telemetry_out::{critical_path_json, trace_groups};

/// GWP sample period of every fleet profile, and of the pprof export.
fn sample_period() -> SimDuration {
    SimDuration::from_micros(2)
}

/// Feeds `executions`' metered work, in order, through one GWP profiler.
fn gwp_pass<'a>(executions: impl IntoIterator<Item = &'a QueryExecution>) -> GwpProfiler {
    let mut profiler = GwpProfiler::new(sample_period());
    for exec in executions {
        for &(site, time) in exec.cpu_work.entries() {
            profiler.observe_site(site, time);
        }
    }
    profiler
}

/// The fleet-wide stack-tree profile: one GWP pass over every platform's
/// work stream in canonical fleet order. Frame roots already carry the
/// platform name (`spanner.commit`, `bigtable.put`, …).
pub(crate) fn fleet_stacks<'a>(
    executions: impl IntoIterator<Item = &'a QueryExecution>,
) -> StackProfile {
    gwp_pass(executions).into_stack_profile()
}

/// One instrumented fleet run: the configuration it ran, the per-shard
/// records in canonical `(platform, shard)` order, and the merged registry.
#[derive(Debug)]
pub struct FleetRun {
    /// The workload the fleet ran.
    pub config: FleetConfig,
    /// Per-shard records and registries, in canonical order.
    pub runs: Vec<ShardRun>,
    /// Every shard registry merged in canonical order.
    pub metrics: MetricsRegistry,
}

impl FleetRun {
    /// Runs the fleet once, instrumented, and merges its registries.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        let runs = run_fleet_telemetry(config);
        let metrics = merge_fleet_metrics(&runs);
        FleetRun {
            config,
            runs,
            metrics,
        }
    }

    /// `profile.json` (schema `hsdp-fleet-profile/1`): per-platform
    /// decomposition sums plus a CRC32C over the full record stream (every
    /// label byte, span timing and CPU work item, in stream order), so two
    /// runs render the same bytes if and only if their records are equal.
    #[must_use]
    pub fn profile_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"hsdp-fleet-profile/1\",\n");
        out.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        out.push_str(&format!("  \"shards\": {},\n", self.config.shards));
        out.push_str("  \"platforms\": [\n");
        let mut digest = Crc32c::new();
        for (i, &platform) in Platform::ALL.iter().enumerate() {
            let (mut queries, mut work_items) = (0usize, 0usize);
            let (mut cpu, mut io, mut remote, mut e2e) = (0u64, 0u64, 0u64, 0u64);
            for run in self.runs.iter().filter(|run| run.platform == platform) {
                for exec in &run.executions {
                    let d = exec.decomposition();
                    cpu += d.cpu.as_nanos();
                    io += d.io.as_nanos();
                    remote += d.remote.as_nanos();
                    e2e += d.end_to_end.as_nanos();
                    queries += 1;
                    work_items += exec.cpu_work.len();
                    digest_exec(&mut digest, exec);
                }
            }
            out.push_str(&format!(
                "    {{\"platform\": \"{platform}\", \"queries\": {queries}, \"cpu_ns\": {cpu}, \
                 \"io_ns\": {io}, \"remote_ns\": {remote}, \"end_to_end_ns\": {e2e}, \
                 \"cpu_work_items\": {work_items}}}{}\n",
                if i + 1 < Platform::ALL.len() { "," } else { "" },
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"record_stream_crc32c\": {}\n}}\n",
            digest.finalize()
        ));
        out
    }

    /// The tail report, stamped with `commit`.
    #[must_use]
    pub fn tail(&self, commit: &str) -> TailReport {
        tail_from_parts(&self.config, &self.runs, &self.metrics, commit)
    }

    /// The fleet-wide stack-tree profile (one GWP pass over the records in
    /// canonical order).
    #[must_use]
    pub fn stacks(&self) -> StackProfile {
        fleet_stacks(self.runs.iter().flat_map(|run| &run.executions))
    }

    /// Renders every bundle file as `(name, bytes)`: `profile.json`,
    /// `metrics.json`, `trace.json`, `critical_path.json`, `stacks.folded`,
    /// `stacks.pb` and `tail.json` (stamped with `commit`).
    ///
    /// # Errors
    ///
    /// Names the artifact that failed its self-check: a JSON file the
    /// validator rejects, or a pprof export that is inconsistent or does
    /// not decode back to the profile that was encoded.
    pub fn bundle(&self, commit: &str) -> Result<Vec<(&'static str, Vec<u8>)>, String> {
        let stacks = self.stacks();
        let profile = stacks.to_pprof(sample_period());
        profile
            .validate()
            .map_err(|e| format!("stacks.pb: inconsistent export: {e}"))?;
        let pprof = profile.encode();
        if Profile::decode(&pprof).ok().as_ref() != Some(&profile) {
            return Err("stacks.pb: round trip does not reproduce the profile".to_owned());
        }
        let json_files = [
            ("profile.json", self.profile_json()),
            ("metrics.json", self.metrics.to_json()),
            ("trace.json", chrome_trace_json(&trace_groups(&self.runs))),
            ("critical_path.json", critical_path_json(&self.runs)),
            ("tail.json", tail::render_json(&self.tail(commit))),
        ];
        let mut files = Vec::with_capacity(json_files.len() + 2);
        for (name, body) in json_files {
            json::validate(&body).map_err(|e| format!("{name}: {e}"))?;
            files.push((name, body.into_bytes()));
        }
        files.push(("stacks.folded", stacks.folded().into_bytes()));
        files.push(("stacks.pb", pprof));
        Ok(files)
    }

    /// The profile-history snapshot: per-category and per-stack exact CPU
    /// nanoseconds from [`FleetRun::stacks`], histogram quantiles from the
    /// merged registry, tail-report summary rows, and `bench` entries (wall
    /// clock, so only folded in when supplied). Everything but `meta` and
    /// `bench` is parallelism-invariant.
    #[must_use]
    pub fn snapshot(&self, meta: SnapshotMeta, bench: BTreeMap<String, f64>) -> ProfileSnapshot {
        let stacks = self.stacks();
        let mut snapshot = ProfileSnapshot {
            meta,
            total_exact_ns: stacks.total_exact().as_nanos(),
            total_samples: stacks.total_samples(),
            categories: stacks.category_exact_ns(),
            stacks: stacks.stack_exact_ns(),
            bench,
            tail: tail_summary(&self.tail("")),
            ..ProfileSnapshot::default()
        };
        for (path, summary) in self.metrics.histogram_summaries() {
            snapshot.quantiles.insert(
                path,
                QuantileRow {
                    count: summary.count,
                    p50: summary.p50,
                    p95: summary.p95,
                    p99: summary.p99,
                },
            );
        }
        snapshot
    }
}

/// Folds one execution into the record-stream checksum.
fn digest_exec(digest: &mut Crc32c, exec: &QueryExecution) {
    digest.update(exec.label.as_bytes());
    for span in &exec.spans {
        digest.update(span.name.as_bytes());
        digest.update(&span.start.as_nanos().to_le_bytes());
        digest.update(&span.end.as_nanos().to_le_bytes());
        digest.update(&[span.kind.priority()]);
    }
    for item in &exec.cpu_work {
        digest.update(item.leaf.as_bytes());
        digest.update(&item.time.as_nanos().to_le_bytes());
    }
}

/// Everything the figure exhibits need about one profiled platform.
#[derive(Debug)]
pub struct PlatformRun {
    /// Which platform.
    pub platform: Platform,
    /// Raw per-query execution records.
    pub executions: Vec<QueryExecution>,
    /// The Figure 2 end-to-end aggregation.
    pub figure2: Figure2,
    /// The GWP-style cycle profile (Figures 3–6).
    pub profile: CycleProfile,
    /// The model-ready query population measured from the simulation.
    pub population: QueryPopulation,
}

/// Runs the whole simulated fleet and profiles each platform end to end.
///
/// # Panics
///
/// Panics if a platform produced no queries (config with zero counts).
#[must_use]
pub fn profile_fleet(config: FleetConfig) -> Vec<PlatformRun> {
    fold_fleet(run_fleet_telemetry(config))
        .into_iter()
        .map(|(platform, executions)| {
            let profile = gwp_pass(&executions).into_profile();
            let decomposed: Vec<_> = executions
                .iter()
                .map(QueryExecution::decomposition)
                .collect();
            let weight = 1.0 / executions.len().max(1) as f64;
            let records = executions
                .iter()
                .zip(&decomposed)
                .map(|(e, d)| e.to_query_record(d, weight))
                .collect();
            let population = QueryPopulation::new(records)
                // audit: allow(panic, documented: a fleet config with zero queries for a platform has no population to measure)
                .expect("fleet config produced at least one query");
            PlatformRun {
                platform,
                figure2: figure2(&decomposed),
                profile,
                population,
                executions,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(parallelism: usize) -> FleetConfig {
        FleetConfig {
            db_queries: 12,
            analytics_queries: 2,
            fact_rows: 200,
            seed: 0xFACE,
            shards: 2,
            parallelism,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn bundle_and_snapshot_are_parallelism_invariant() {
        let meta = SnapshotMeta {
            commit: "test".to_owned(),
            sequence: 1,
            host_parallelism: 1,
            cpu_features: "test".to_owned(),
        };
        let p1 = FleetRun::new(small_config(1));
        let p4 = FleetRun::new(small_config(4));
        assert_eq!(
            p1.bundle("c").expect("self-checks pass"),
            p4.bundle("c").expect("self-checks pass")
        );
        let s1 = p1.snapshot(meta.clone(), BTreeMap::new());
        let s4 = p4.snapshot(meta, BTreeMap::new());
        assert_eq!(s1, s4, "snapshot content is parallelism-invariant");
        assert_eq!(s1.encode(), s4.encode(), "and so are the bytes");
        assert!(s1.total_exact_ns > 0);
        assert!(!s1.categories.is_empty());
        assert!(!s1.quantiles.is_empty());
        assert!(
            s1.tail.keys().any(|k| k.ends_with("/p99_tax_share_ppm")),
            "snapshot carries tail-report summaries"
        );
    }

    #[test]
    fn stacks_match_fleet_stack_profile() {
        let run = FleetRun::new(small_config(2));
        let folded = fold_fleet(run_fleet_telemetry(run.config));
        assert_eq!(
            run.stacks(),
            crate::exhibits::fleet_stack_profile(&folded, run.config.seed)
        );
    }
}
