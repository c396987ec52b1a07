//! Request-centric tail-latency attribution: the tail report builder.
//!
//! The paper's fleet profiles answer *where cycles go on average*; this
//! module answers the tail question — *which requests are slow, and what
//! are they paying for?* It joins three deterministic signals over one
//! instrumented fleet run:
//!
//! 1. **Latency cohorts** — every traffic request carries a
//!    [`RequestId`], so the per-platform latency distribution can be split
//!    into cohorts (the fastest half for "p50", the slowest 1% for "p99")
//!    and each cohort's tax share computed from exact metered nanoseconds.
//! 2. **Heavy hitters** — per-shard space-saving sketches
//!    ([`hsdp_profiling::heavy`]) attribute exact-ns CPU and tax time to
//!    requests, merged across shards in canonical `(platform, shard)`
//!    order.
//! 3. **Exemplars + blame** — histogram bucket exemplars from
//!    `hsdp-telemetry` name a concrete request per latency bucket, and the
//!    slowest requests get a full blame breakdown: Section 4 end-to-end
//!    decomposition, Dapper critical path, and broad tax split.
//!
//! Everything is integer-exact and derived from canonical merged state, so
//! the rendered report is byte-identical at any `parallelism` and under
//! `pool::Perturbation` — the property the determinism suite pins.

use std::collections::BTreeMap;

use hsdp_core::category::{BroadCategory, Platform};
use hsdp_core::request::RequestId;
use hsdp_platforms::runner::{platform_key, FleetConfig, ShardRun};
use hsdp_platforms::QueryExecution;
use hsdp_profiling::heavy::SpaceSaving;
use hsdp_telemetry::critical_path::{critical_path, PathCategory};
use hsdp_telemetry::registry::{bucket_lower_bound, key_path};
use hsdp_telemetry::MetricsRegistry;

/// Counter budget of each per-platform heavy-hitter sketch. Far above the
/// slowest-request shortlist so top ranks are exact in practice, far below
/// the request universe so the sketch stays a sketch.
pub const HITTER_CAPACITY: usize = 64;

/// Heavy hitters itemized per platform in the report.
pub const HITTERS_REPORTED: usize = 5;

/// Slowest requests given a blame breakdown per platform.
pub const BLAME_REPORTED: usize = 5;

/// Exact CPU totals of one cohort of requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStat {
    /// Requests in the cohort.
    pub requests: u64,
    /// Exact metered CPU nanoseconds across the cohort.
    pub cpu_ns: u64,
    /// Exact tax (datacenter + system) nanoseconds across the cohort.
    pub tax_ns: u64,
    /// `tax_ns / cpu_ns` in parts-per-million (integer-exact).
    pub tax_share_ppm: u64,
    /// Slowest end-to-end latency in the cohort (ns).
    pub max_e2e_ns: u64,
}

/// One attributed heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitterRow {
    /// The request.
    pub request: RequestId,
    /// Estimated nanoseconds (`true <= count`).
    pub count: u64,
    /// Maximum overestimate (`count - err <= true`).
    pub err: u64,
}

/// One histogram-bucket exemplar, joined with its bucket bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemplarRow {
    /// Canonical metric path (`spanner/query_latency_ns/commit`).
    pub metric: String,
    /// Histogram bucket index.
    pub bucket: u16,
    /// Inclusive lower bound of the bucket (ns).
    pub ge_ns: u64,
    /// The representative request.
    pub request: RequestId,
    /// The exemplar's observed latency (ns).
    pub value_ns: u64,
}

/// Blame breakdown for one slow request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameRow {
    /// The request.
    pub request: RequestId,
    /// Operation label of its execution.
    pub label: &'static str,
    /// End-to-end latency (ns).
    pub e2e_ns: u64,
    /// Section 4 decomposition: wall-clock CPU on the trace.
    pub cpu_ns: u64,
    /// Section 4 decomposition: distributed-storage IO.
    pub io_ns: u64,
    /// Section 4 decomposition: remote work.
    pub remote_ns: u64,
    /// Dapper critical-path nanoseconds per [`PathCategory::ALL`] slot.
    pub path_ns: [u64; 5],
    /// Exact metered core-compute nanoseconds.
    pub core_ns: u64,
    /// Exact metered datacenter-tax nanoseconds.
    pub datacenter_ns: u64,
    /// Exact metered system-tax nanoseconds.
    pub system_ns: u64,
}

/// One platform's tail section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformTail {
    /// The platform.
    pub platform: Platform,
    /// Totals over every traffic request.
    pub all: CohortStat,
    /// The fastest half of requests (the "typical" cohort).
    pub p50: CohortStat,
    /// The slowest 1% of requests (the tail cohort).
    pub p99: CohortStat,
    /// Top CPU spenders from the merged space-saving sketch.
    pub hitters_cpu: Vec<HitterRow>,
    /// Top tax spenders from the merged space-saving sketch.
    pub hitters_tax: Vec<HitterRow>,
    /// Latency-histogram bucket exemplars for this platform.
    pub exemplars: Vec<ExemplarRow>,
    /// Blame breakdowns for the slowest requests.
    pub blame: Vec<BlameRow>,
}

/// The full tail report: cohorts, heavy hitters, exemplars, and blame for
/// each platform, plus the workload identity it was derived from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailReport {
    /// Workload seed.
    pub seed: u64,
    /// Shards per platform.
    pub shards: usize,
    /// Commit stamp (empty when not supplied).
    pub commit: String,
    /// Per-platform sections in [`Platform::ALL`] order.
    pub platforms: Vec<PlatformTail>,
}

/// Splits one execution's metered work into `(cpu_total, tax)` exact ns.
fn work_split(exec: &QueryExecution) -> (u64, u64) {
    let mut cpu = 0u64;
    let mut tax = 0u64;
    for item in &exec.cpu_work {
        let ns = item.time.as_nanos();
        cpu += ns;
        if item.category.broad() != BroadCategory::CoreCompute {
            tax += ns;
        }
    }
    (cpu, tax)
}

/// `tax / cpu` in integer parts-per-million.
fn ppm(tax_ns: u64, cpu_ns: u64) -> u64 {
    if cpu_ns == 0 {
        return 0;
    }
    (u128::from(tax_ns) * 1_000_000 / u128::from(cpu_ns)) as u64
}

/// Folds a cohort (a slice of indices into `execs`) into its stat row.
fn cohort_stat(execs: &[&QueryExecution], members: &[usize]) -> CohortStat {
    let mut stat = CohortStat {
        requests: members.len() as u64,
        ..CohortStat::default()
    };
    for &i in members {
        let exec = execs[i];
        let (cpu, tax) = work_split(exec);
        stat.cpu_ns += cpu;
        stat.tax_ns += tax;
        stat.max_e2e_ns = stat
            .max_e2e_ns
            .max(exec.decomposition().end_to_end.as_nanos());
    }
    stat.tax_share_ppm = ppm(stat.tax_ns, stat.cpu_ns);
    stat
}

/// Builds the tail report from an already-executed instrumented fleet run.
/// `runs` must be in canonical `(platform, shard)` order — exactly what
/// `run_fleet_telemetry` returns — so shard sketches merge canonically.
#[must_use]
pub fn tail_from_parts(
    config: &FleetConfig,
    runs: &[ShardRun],
    metrics: &MetricsRegistry,
    commit: &str,
) -> TailReport {
    // Per-shard sketches, merged per platform in canonical shard order.
    let mut cpu_sketches: BTreeMap<usize, SpaceSaving> = BTreeMap::new();
    let mut tax_sketches: BTreeMap<usize, SpaceSaving> = BTreeMap::new();
    for run in runs {
        let mut shard_cpu = SpaceSaving::new(HITTER_CAPACITY);
        let mut shard_tax = SpaceSaving::new(HITTER_CAPACITY);
        for exec in &run.executions {
            if !exec.request.is_tagged() {
                continue;
            }
            let (cpu, tax) = work_split(exec);
            shard_cpu.observe(exec.request.0, cpu);
            shard_tax.observe(exec.request.0, tax);
        }
        let slot = run.platform as usize;
        cpu_sketches
            .entry(slot)
            .or_insert_with(|| SpaceSaving::new(HITTER_CAPACITY))
            .merge(&shard_cpu);
        tax_sketches
            .entry(slot)
            .or_insert_with(|| SpaceSaving::new(HITTER_CAPACITY))
            .merge(&shard_tax);
    }

    let mut platforms = Vec::with_capacity(Platform::ALL.len());
    for &platform in &Platform::ALL {
        let execs: Vec<&QueryExecution> = runs
            .iter()
            .filter(|run| run.platform == platform)
            .flat_map(|run| run.executions.iter())
            .collect();

        // Canonical latency order: (end-to-end, request) ascending.
        let mut by_latency: Vec<(u64, u64, usize)> = execs
            .iter()
            .enumerate()
            .map(|(i, exec)| {
                (
                    exec.decomposition().end_to_end.as_nanos(),
                    exec.request.0,
                    i,
                )
            })
            .collect();
        by_latency.sort_unstable();

        let n = by_latency.len();
        let all_members: Vec<usize> = by_latency.iter().map(|&(_, _, i)| i).collect();
        let p50_members: Vec<usize> = all_members[..n.div_ceil(2).min(n)].to_vec();
        let p99_members: Vec<usize> = all_members[n - n.div_ceil(100).min(n)..].to_vec();

        let hitters = |sketch: Option<&SpaceSaving>| -> Vec<HitterRow> {
            sketch
                .map(|s| {
                    s.entries()
                        .into_iter()
                        .take(HITTERS_REPORTED)
                        .map(|e| HitterRow {
                            request: RequestId(e.key),
                            count: e.count,
                            err: e.err,
                        })
                        .collect()
                })
                .unwrap_or_default()
        };

        let mut exemplars = Vec::new();
        for (key, hist) in metrics.histograms() {
            if key.0 != platform_key(platform) || key.1 != "query_latency_ns" {
                continue;
            }
            for (bucket, ex) in hist.exemplars() {
                exemplars.push(ExemplarRow {
                    metric: key_path(key),
                    bucket,
                    ge_ns: bucket_lower_bound(bucket),
                    request: ex.request,
                    value_ns: ex.value,
                });
            }
        }

        // Blame the slowest requests: walk the latency order from the top.
        let blame: Vec<BlameRow> = by_latency
            .iter()
            .rev()
            .take(BLAME_REPORTED)
            .map(|&(e2e_ns, _, i)| {
                let exec = execs[i];
                let d = exec.decomposition();
                let path = critical_path(&exec.spans);
                let mut path_ns = [0u64; 5];
                for (slot, &category) in PathCategory::ALL.iter().enumerate() {
                    path_ns[slot] = path.ns(category);
                }
                let (mut core, mut dc, mut sys) = (0u64, 0u64, 0u64);
                for item in &exec.cpu_work {
                    let ns = item.time.as_nanos();
                    match item.category.broad() {
                        BroadCategory::CoreCompute => core += ns,
                        BroadCategory::DatacenterTax => dc += ns,
                        BroadCategory::SystemTax => sys += ns,
                    }
                }
                BlameRow {
                    request: exec.request,
                    label: exec.label,
                    e2e_ns,
                    cpu_ns: d.cpu.as_nanos(),
                    io_ns: d.io.as_nanos(),
                    remote_ns: d.remote.as_nanos(),
                    path_ns,
                    core_ns: core,
                    datacenter_ns: dc,
                    system_ns: sys,
                }
            })
            .collect();

        platforms.push(PlatformTail {
            platform,
            all: cohort_stat(&execs, &all_members),
            p50: cohort_stat(&execs, &p50_members),
            p99: cohort_stat(&execs, &p99_members),
            hitters_cpu: hitters(cpu_sketches.get(&(platform as usize))),
            hitters_tax: hitters(tax_sketches.get(&(platform as usize))),
            exemplars,
            blame,
        });
    }

    TailReport {
        seed: config.seed,
        shards: config.shards,
        commit: commit.to_owned(),
        platforms,
    }
}

/// Flattens the report into `key -> u64` rows for the profile-history
/// snapshot (`ProfileSnapshot::tail`): per-platform cohort tax shares and
/// exemplar/hitter summaries, every value integer-exact.
#[must_use]
pub fn tail_summary(report: &TailReport) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for section in &report.platforms {
        let key = platform_key(section.platform);
        out.insert(format!("{key}/requests"), section.all.requests);
        out.insert(format!("{key}/cpu_ns"), section.all.cpu_ns);
        out.insert(format!("{key}/tax_ns"), section.all.tax_ns);
        out.insert(
            format!("{key}/p50_tax_share_ppm"),
            section.p50.tax_share_ppm,
        );
        out.insert(
            format!("{key}/p99_tax_share_ppm"),
            section.p99.tax_share_ppm,
        );
        out.insert(format!("{key}/p99_max_e2e_ns"), section.p99.max_e2e_ns);
        out.insert(format!("{key}/exemplars"), section.exemplars.len() as u64);
        if let Some(top) = section.hitters_cpu.first() {
            out.insert(format!("{key}/top_request"), top.request.0);
            out.insert(format!("{key}/top_request_cpu_ns"), top.count);
        }
    }
    out
}

/// Renders the canonical JSON artifact (`hsdp-tail-report/1`, the bundle's
/// `tail.json`). Pure function of the report — the byte-identity surface
/// the determinism suite and the CI smoke step diff.
#[must_use]
pub fn render_json(report: &TailReport) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"hsdp-tail-report/1\",\n");
    out.push_str(&format!(
        "  \"commit\": \"{}\",\n",
        report.commit.replace('\\', "\\\\").replace('"', "\\\"")
    ));
    out.push_str(&format!("  \"seed\": {},\n", report.seed));
    out.push_str(&format!("  \"shards\": {},\n", report.shards));
    out.push_str("  \"platforms\": [\n");
    for (pi, section) in report.platforms.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!(
            "      \"platform\": \"{}\",\n",
            platform_key(section.platform)
        ));
        for (name, stat) in [
            ("all", &section.all),
            ("p50", &section.p50),
            ("p99", &section.p99),
        ] {
            out.push_str(&format!(
                "      \"{name}\": {{\"requests\": {}, \"cpu_ns\": {}, \"tax_ns\": {}, \
                 \"tax_share_ppm\": {}, \"max_e2e_ns\": {}}},\n",
                stat.requests, stat.cpu_ns, stat.tax_ns, stat.tax_share_ppm, stat.max_e2e_ns,
            ));
        }
        for (name, rows) in [
            ("heavy_hitters_cpu", &section.hitters_cpu),
            ("heavy_hitters_tax", &section.hitters_tax),
        ] {
            out.push_str(&format!("      \"{name}\": [\n"));
            for (i, row) in rows.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"request\": \"{}\", \"ns\": {}, \"err_ns\": {}}}{}\n",
                    row.request,
                    row.count,
                    row.err,
                    if i + 1 < rows.len() { "," } else { "" },
                ));
            }
            out.push_str("      ],\n");
        }
        out.push_str("      \"exemplars\": [\n");
        for (i, row) in section.exemplars.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"metric\": \"{}\", \"bucket\": {}, \"ge_ns\": {}, \
                 \"request\": \"{}\", \"value_ns\": {}}}{}\n",
                row.metric,
                row.bucket,
                row.ge_ns,
                row.request,
                row.value_ns,
                if i + 1 < section.exemplars.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        out.push_str("      ],\n");
        out.push_str("      \"blame\": [\n");
        for (i, row) in section.blame.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"request\": \"{}\", \"label\": \"{}\", \"e2e_ns\": {}, \
                 \"cpu_ns\": {}, \"io_ns\": {}, \"remote_ns\": {}, \"path\": {{",
                row.request, row.label, row.e2e_ns, row.cpu_ns, row.io_ns, row.remote_ns,
            ));
            for (slot, &category) in PathCategory::ALL.iter().enumerate() {
                out.push_str(&format!(
                    "\"{}\": {}{}",
                    category.name(),
                    row.path_ns[slot],
                    if slot + 1 < PathCategory::ALL.len() {
                        ", "
                    } else {
                        ""
                    },
                ));
            }
            out.push_str(&format!(
                "}}, \"core_ns\": {}, \"datacenter_tax_ns\": {}, \"system_tax_ns\": {}}}{}\n",
                row.core_ns,
                row.datacenter_ns,
                row.system_ns,
                if i + 1 < section.blame.len() { "," } else { "" },
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if pi + 1 < report.platforms.len() {
                ","
            } else {
                ""
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the human-readable table (part of `hsdp summary`).
#[must_use]
pub fn render_text(report: &TailReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "tail report  seed={} shards={}\n",
        report.seed, report.shards
    ));
    for section in &report.platforms {
        let key = platform_key(section.platform);
        out.push_str(&format!(
            "\n== {key}: {} requests, tax share p50-cohort {:.2}% vs p99-cohort {:.2}% ==\n",
            section.all.requests,
            section.p50.tax_share_ppm as f64 / 10_000.0,
            section.p99.tax_share_ppm as f64 / 10_000.0,
        ));
        out.push_str("  heaviest requests (cpu):\n");
        for row in &section.hitters_cpu {
            out.push_str(&format!(
                "    {:<22} {:>12} ns (+/- {} ns)\n",
                row.request.to_string(),
                row.count,
                row.err
            ));
        }
        out.push_str("  slowest requests (blame):\n");
        for row in &section.blame {
            out.push_str(&format!(
                "    {:<22} {:<16} e2e {:>12} ns  cpu {:>10} io {:>10} remote {:>10}  \
                 tax {:>10}/{:>10}\n",
                row.request.to_string(),
                row.label,
                row.e2e_ns,
                row.cpu_ns,
                row.io_ns,
                row.remote_ns,
                row.datacenter_ns,
                row.system_ns,
            ));
        }
        out.push_str(&format!(
            "  exemplars: {} buckets with representatives\n",
            section.exemplars.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FleetRun;
    use hsdp_simcore::pool::Perturbation;
    use hsdp_telemetry::json::validate;

    fn build_report(config: FleetConfig, commit: &str) -> TailReport {
        FleetRun::new(config).tail(commit)
    }

    fn small_config(parallelism: usize, perturb: Option<Perturbation>) -> FleetConfig {
        FleetConfig {
            db_queries: 48,
            analytics_queries: 8,
            fact_rows: 400,
            shards: 2,
            seed: 0xBEEF,
            parallelism,
            perturb,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn report_is_parallelism_invariant() {
        let p1 = render_json(&build_report(small_config(1, None), "t"));
        let p4 = render_json(&build_report(small_config(4, None), "t"));
        assert_eq!(p1, p4, "tail report must be byte-identical at p1 vs p4");
        validate(&p1).expect("report is well-formed JSON");
    }

    #[test]
    fn report_is_perturbation_invariant() {
        let base = render_json(&build_report(small_config(3, None), "t"));
        for perturb_seed in 0..8 {
            let perturbed = render_json(&build_report(
                small_config(3, Some(Perturbation::new(perturb_seed))),
                "t",
            ));
            assert_eq!(
                base, perturbed,
                "tail report must survive schedule perturbation {perturb_seed}"
            );
        }
    }

    #[test]
    fn every_platform_has_tail_content() {
        let report = build_report(small_config(2, None), "");
        assert_eq!(report.platforms.len(), 3);
        for section in &report.platforms {
            assert!(section.all.requests > 0);
            assert!(section.all.cpu_ns > 0);
            assert!(!section.hitters_cpu.is_empty());
            assert!(!section.exemplars.is_empty());
            assert!(!section.blame.is_empty());
            // Every blamed request must be tagged traffic, in slowest-first
            // order, with some metered work attributed.
            for pair in section.blame.windows(2) {
                assert!(pair[0].e2e_ns >= pair[1].e2e_ns);
            }
            for row in &section.blame {
                assert!(row.request.is_tagged());
                assert_eq!(row.request.platform(), Some(section.platform));
                assert!(row.core_ns + row.datacenter_ns + row.system_ns > 0);
            }
            // Cohort invariants: p99 is a subset of all; shares are ppm.
            assert!(section.p99.requests <= section.all.requests);
            assert!(section.p50.tax_share_ppm <= 1_000_000);
            assert!(section.p99.tax_share_ppm <= 1_000_000);
            assert!(section.p99.max_e2e_ns == section.all.max_e2e_ns);
        }
    }

    #[test]
    fn summary_rows_are_stable_and_exact() {
        let report = build_report(small_config(2, None), "");
        let summary = tail_summary(&report);
        for section in &report.platforms {
            let key = platform_key(section.platform);
            assert_eq!(summary[&format!("{key}/requests")], section.all.requests);
            assert_eq!(
                summary[&format!("{key}/p99_tax_share_ppm")],
                section.p99.tax_share_ppm
            );
        }
    }
}
