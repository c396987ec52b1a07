//! One benchmark iteration: a fleet run and every artifact a user derives
//! from it with `fleet_profile --telemetry --folded --pprof` plus
//! `tail_report`, all in memory. Each call into a layer sits in its own span
//! (recorded only in traced runs), named `<crate>.<layer>`.

use crate::api::{
    chrome_trace_json, critical_path_json, figure2, fleet_stack_profile, fold_fleet,
    merge_fleet_metrics, platform_agreement, platform_key, render_tail_json, run_fleet_telemetry,
    stack_sample_period, tail_from_parts, trace_groups, Crc32c, Figure2, FleetConfig,
    MetricsRegistry, PathCategory, Platform, Profile, QueryExecution,
};
use crate::spans::Recorder;

/// Everything one iteration renders. Byte-identical across iterations and
/// parallelism for one workload and seed.
#[derive(Debug)]
pub struct Artifacts {
    pub metrics_json: String,
    pub trace_json: String,
    pub critical_path_json: String,
    pub tail_json: String,
    pub folded: String,
    pub pprof: Vec<u8>,
    /// `fleet_profile`'s profile JSON, carrying the record-stream digest.
    pub profile_json: String,
    /// Figure 2 rows per platform.
    pub figure2: String,
}

impl Artifacts {
    /// `(name, bytes)` for every artifact, in a fixed order.
    pub fn named(&self) -> [(&'static str, &[u8]); 8] {
        [
            ("metrics.json", self.metrics_json.as_bytes()),
            ("trace.json", self.trace_json.as_bytes()),
            ("critical_path.json", self.critical_path_json.as_bytes()),
            ("tail.json", self.tail_json.as_bytes()),
            ("folded", self.folded.as_bytes()),
            ("pprof", &self.pprof),
            ("profile.json", self.profile_json.as_bytes()),
            ("figure2", self.figure2.as_bytes()),
        ]
    }

    /// CRC32C of every artifact, in [`Artifacts::named`] order.
    pub fn digests(&self) -> [(&'static str, u32); 8] {
        self.named().map(|(name, bytes)| {
            let mut crc = Crc32c::new();
            crc.update(bytes);
            (name, crc.finalize())
        })
    }
}

/// Counts one iteration observed, for the output check and the traced run.
#[derive(Debug)]
pub struct Facts {
    /// Queries per platform, in [`Platform::ALL`] order.
    pub queries: [usize; 3],
    pub cpu_work_items: usize,
    pub spans: usize,
    pub record_crc: u32,
    pub samples: u64,
    pub frames: usize,
    /// Traffic-phase counters from the merged registry, by metric name.
    pub counters: Vec<(&'static str, u64)>,
    /// The pprof bytes decoded back to the profile that was encoded.
    pub pprof_round_trip: bool,
}

/// Merged-registry counters the traced run reports, as
/// `(metric name, registry key)`.
const COUNTERS: [(&str, (&str, &str, &str)); 5] = [
    (
        "platforms.bigtable.memtable_flushes",
        ("bigtable", "memtable_flushes", ""),
    ),
    (
        "platforms.bigtable.compactions",
        ("bigtable", "compactions", ""),
    ),
    (
        "platforms.bigtable.compaction_entries",
        ("bigtable", "compaction_entries", ""),
    ),
    (
        "platforms.spanner.consensus_rounds",
        ("spanner", "consensus_rounds", ""),
    ),
    ("platforms.bigquery.shuffles", ("bigquery", "shuffles", "")),
];

pub fn counters(metrics: &MetricsRegistry) -> Vec<(&'static str, u64)> {
    COUNTERS
        .iter()
        .map(|&(name, key)| (name, metrics.counter(key)))
        .collect()
}

/// Runs one iteration. With `deep_check`, also recomputes the three-view
/// crosscheck from the shard records (slow; done once per run, untimed).
pub fn iterate(
    config: FleetConfig,
    rec: &mut Recorder,
    deep_check: bool,
) -> (Artifacts, Facts, Vec<String>) {
    let mut problems = Vec::new();
    let root = rec.begin("iteration");
    let runs = rec.time("platforms.fleet_run", || run_fleet_telemetry(config));
    let metrics = rec.time("telemetry.merge", || merge_fleet_metrics(&runs));
    let metrics_json = rec.time("telemetry.metrics_json", || metrics.to_json());
    let trace_json = rec.time("telemetry.trace_export", || {
        chrome_trace_json(&trace_groups(&runs))
    });
    let critical_path_json = rec.time("telemetry.critical_path", || critical_path_json(&runs));
    let tail_json = rec.time("bench.tail", || {
        render_tail_json(&tail_from_parts(&config, &runs, &metrics, ""))
    });
    if deep_check {
        problems.extend(crosscheck_records(&runs));
    }
    let fleet = rec.time("platforms.fold", || fold_fleet(runs));
    let stacks = rec.time("profiling.gwp", || fleet_stack_profile(&fleet, config.seed));
    let folded = rec.time("profiling.folded", || stacks.folded());
    let profile = rec.time("profiling.pprof_build", || {
        let profile = stacks.to_pprof(stack_sample_period());
        profile.validate().map(|()| profile)
    });
    let profile = match profile {
        Ok(profile) => profile,
        Err(err) => {
            problems.push(format!("pprof export is inconsistent: {err:?}"));
            Profile::default()
        }
    };
    let pprof = rec.time("taxes.pprof_encode", || profile.encode());
    let pprof_round_trip = rec.time("taxes.pprof_decode", || {
        Profile::decode(&pprof).is_ok_and(|decoded| decoded == profile)
    });
    let summaries = rec.time("profiling.decompose", || summarize(&fleet));
    let record_crc = rec.time("taxes.crc_digest", || record_stream_crc(&fleet));
    let (profile_json, figure2) = rec.time("bench.profile_json", || {
        (
            render_profile(&config, &summaries, record_crc),
            render_figure2(&summaries),
        )
    });
    let facts = Facts {
        queries: [0, 1, 2].map(|i| fleet[i].1.len()),
        cpu_work_items: fleet
            .iter()
            .flat_map(|(_, execs)| execs)
            .map(|e| e.cpu_work.len())
            .sum(),
        spans: fleet
            .iter()
            .flat_map(|(_, execs)| execs)
            .map(|e| e.spans.len())
            .sum(),
        record_crc,
        samples: stacks.total_samples(),
        frames: stacks.frame_count(),
        counters: counters(&metrics),
        pprof_round_trip,
    };
    rec.time("bench.drop", || drop((fleet, stacks, profile, metrics)));
    rec.end(root);
    let artifacts = Artifacts {
        metrics_json,
        trace_json,
        critical_path_json,
        tail_json,
        folded,
        pprof,
        profile_json,
        figure2,
    };
    (artifacts, facts, problems)
}

/// One platform's decomposition sums and Figure 2 rows.
struct PlatformSummary {
    platform: Platform,
    queries: usize,
    cpu_ns: u64,
    io_ns: u64,
    remote_ns: u64,
    end_to_end_ns: u64,
    cpu_work_items: usize,
    figure2: Figure2,
}

fn summarize(fleet: &[(Platform, Vec<QueryExecution>)]) -> Vec<PlatformSummary> {
    fleet
        .iter()
        .map(|(platform, execs)| {
            let decomposed: Vec<_> = execs.iter().map(QueryExecution::decomposition).collect();
            let mut summary = PlatformSummary {
                platform: *platform,
                queries: execs.len(),
                cpu_ns: 0,
                io_ns: 0,
                remote_ns: 0,
                end_to_end_ns: 0,
                cpu_work_items: execs.iter().map(|e| e.cpu_work.len()).sum(),
                figure2: figure2(&decomposed),
            };
            for d in &decomposed {
                summary.cpu_ns += d.cpu.as_nanos();
                summary.io_ns += d.io.as_nanos();
                summary.remote_ns += d.remote.as_nanos();
                summary.end_to_end_ns += d.end_to_end.as_nanos();
            }
            summary
        })
        .collect()
}

/// The CRC32C over the full record stream that `fleet_profile`'s profile
/// JSON carries: every label byte, span timing and CPU work item, in stream
/// order. Reimplemented here because that renderer is private to its bin.
pub fn record_stream_crc(fleet: &[(Platform, Vec<QueryExecution>)]) -> u32 {
    let mut digest = Crc32c::new();
    for exec in fleet.iter().flat_map(|(_, execs)| execs) {
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
    digest.finalize()
}

/// `fleet_profile`'s profile JSON, byte for byte.
fn render_profile(config: &FleetConfig, summaries: &[PlatformSummary], record_crc: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hsdp-fleet-profile/1\",\n");
    out.push_str(&format!("  \"seed\": {},\n", config.seed));
    out.push_str(&format!("  \"shards\": {},\n", config.shards));
    out.push_str("  \"platforms\": [\n");
    for (i, s) in summaries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"platform\": \"{}\", \"queries\": {}, \"cpu_ns\": {}, \
             \"io_ns\": {}, \"remote_ns\": {}, \"end_to_end_ns\": {}, \
             \"cpu_work_items\": {}}}{}\n",
            s.platform,
            s.queries,
            s.cpu_ns,
            s.io_ns,
            s.remote_ns,
            s.end_to_end_ns,
            s.cpu_work_items,
            if i + 1 < summaries.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"record_stream_crc32c\": {record_crc}\n}}\n"));
    out
}

fn render_figure2(summaries: &[PlatformSummary]) -> String {
    let mut out = String::new();
    for s in summaries {
        for row in s.figure2.groups.iter().chain([&s.figure2.overall]) {
            out.push_str(&format!(
                "{} {:?} queries={:.9} cpu={:.9} remote={:.9} io={:.9}\n",
                platform_key(s.platform),
                row.group,
                row.query_fraction,
                row.cpu_share,
                row.remote_share,
                row.io_share,
            ));
        }
    }
    out
}

/// The three-view agreement from the shard records, as the telemetry tests
/// state it: category fractions partition the critical path, single-server
/// platforms put exactly their metered CPU on the path, and the fan-out
/// platform's path CPU undercuts its metered CPU.
fn crosscheck_records(runs: &[crate::api::ShardRun]) -> Vec<String> {
    let mut problems = Vec::new();
    for platform in Platform::ALL {
        let report = platform_agreement(runs, platform);
        if (report.fraction_sum() - 1.0).abs() >= 1e-9 {
            problems.push(format!(
                "{platform}: path fractions sum to {}",
                report.fraction_sum()
            ));
        }
        let ok = match platform {
            Platform::BigQuery => report.path.ns(PathCategory::Cpu) < report.metered_cpu.as_nanos(),
            _ => (report.path_cpu_over_metered() - 1.0).abs() < 1e-12,
        };
        if !ok {
            problems.push(format!(
                "{platform}: path CPU / metered CPU = {}",
                report.path_cpu_over_metered()
            ));
        }
    }
    problems
}

/// The output check every iteration gets: the iteration's artifacts equal
/// the reference (p=1) iteration's byte for byte, per-platform query counts
/// equal the configuration, the path-CPU/metered agreement the critical-path
/// artifact reports holds, the pprof round trip is lossless, and — where
/// stored — the digests equal the golden ones.
pub fn check(
    config: &FleetConfig,
    artifacts: &Artifacts,
    facts: &Facts,
    reference: Option<&Artifacts>,
    golden: Option<&crate::workloads::Golden>,
) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(reference) = reference {
        for ((name, got), (_, want)) in artifacts.named().iter().zip(reference.named()) {
            if *got != want {
                problems.push(format!("{name} differs from the p=1 reference"));
            }
        }
    }
    let want = [
        config.db_queries,
        config.db_queries,
        config.analytics_queries,
    ];
    if facts.queries != want {
        problems.push(format!(
            "queries per platform {:?}, want {want:?}",
            facts.queries
        ));
    }
    let ratios = path_cpu_ratios(&artifacts.critical_path_json);
    if ratios.len() != Platform::ALL.len() {
        problems.push(format!(
            "critical_path.json reports {} platform(s)",
            ratios.len()
        ));
    }
    for (platform, ratio) in ratios {
        let ok = match platform.as_str() {
            "bigquery" => ratio < 1.0,
            _ => (ratio - 1.0).abs() < 1e-9,
        };
        if !ok {
            problems.push(format!("{platform}: path CPU / metered CPU = {ratio}"));
        }
    }
    if !facts.pprof_round_trip {
        problems.push("pprof decode differs from what was encoded".to_owned());
    }
    if let Some(golden) = golden {
        if facts.record_crc != golden.record_crc {
            problems.push(format!(
                "record-stream CRC32C {} != stored {}",
                facts.record_crc, golden.record_crc
            ));
        }
        for ((name, got), (_, want)) in artifacts.digests().iter().zip(golden.artifacts) {
            if *got != want {
                problems.push(format!("{name} CRC32C {got} != stored {want}"));
            }
        }
    }
    problems
}

/// `(platform, path_cpu_over_metered_cpu)` pairs read back from
/// `critical_path.json`.
fn path_cpu_ratios(critical_path_json: &str) -> Vec<(String, f64)> {
    const KEY: &str = "\"path_cpu_over_metered_cpu\": ";
    let mut out = Vec::new();
    let mut platform = String::new();
    for line in critical_path_json.lines() {
        let line = line.trim();
        if let Some(name) = line.strip_suffix("\": {").and_then(|l| l.strip_prefix('"')) {
            if Platform::ALL.iter().any(|&p| platform_key(p) == name) {
                platform = name.to_owned();
            }
        }
        if let Some(value) = line.strip_prefix(KEY) {
            let ratio = value.trim_end_matches(',').parse().unwrap_or(f64::NAN);
            out.push((platform.clone(), ratio));
        }
    }
    out
}
