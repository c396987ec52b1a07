//! End-to-end checks on the telemetry artifacts: the three JSONs are
//! syntactically valid, the critical-path fractions partition each
//! platform's wall-clock, and the critical-path CPU view agrees with the
//! metered CPU universe that the GWP profiler samples from.

use hsdp_bench::telemetry_out::platform_agreement;
use hsdp_bench::FleetRun;
use hsdp_core::category::Platform;
use hsdp_platforms::runner::{run_fleet_telemetry, FleetConfig, ShardRun};
use hsdp_profiling::{GwpConfig, GwpProfiler};
use hsdp_telemetry::critical_path::PathCategory;
use hsdp_telemetry::json;

fn config() -> FleetConfig {
    FleetConfig {
        db_queries: 60,
        analytics_queries: 9,
        fact_rows: 600,
        seed: 0x00DE_7EC7,
        parallelism: 2,
        shards: 4,
        tablets: 2,
        perturb: None,
    }
}

fn instrumented_runs() -> Vec<ShardRun> {
    run_fleet_telemetry(config())
}

#[test]
fn artifacts_are_valid_json() {
    let bundle = FleetRun::new(config())
        .bundle("")
        .expect("self-checks pass");
    let file = |wanted: &str| -> String {
        let (_, bytes) = bundle
            .iter()
            .find(|(name, _)| *name == wanted)
            .unwrap_or_else(|| panic!("bundle has no {wanted}"));
        String::from_utf8(bytes.clone()).expect("utf-8")
    };
    for name in [
        "profile.json",
        "metrics.json",
        "trace.json",
        "critical_path.json",
        "tail.json",
    ] {
        let body = file(name);
        json::validate(&body).unwrap_or_else(|err| panic!("{name}: {err}"));
        assert!(!body.is_empty(), "{name} is empty");
    }
    assert!(file("trace.json").contains("\"ph\": \"X\""));
    assert!(file("metrics.json").contains("spanner/queries"));
    assert!(file("critical_path.json").contains("path_cpu_over_metered_cpu"));
}

#[test]
fn critical_path_fractions_partition_each_platform() {
    let runs = instrumented_runs();
    for platform in Platform::ALL {
        let report = platform_agreement(&runs, platform);
        assert!(
            (report.fraction_sum() - 1.0).abs() < 1e-9,
            "{platform}: fractions sum to {}",
            report.fraction_sum()
        );
        // The integer nanoseconds partition exactly, not just the floats.
        let ns_sum: u64 = PathCategory::ALL.iter().map(|&c| report.path.ns(c)).sum();
        assert_eq!(ns_sum, report.path.total_ns(), "{platform}: ns partition");
        // Both wall-clock attributions cover the same window.
        let decomposed_ns: u64 = runs
            .iter()
            .filter(|run| run.platform == platform)
            .flat_map(|run| &run.executions)
            .map(|exec| exec.decomposition().end_to_end.as_nanos())
            .sum();
        assert_eq!(
            report.path.total_ns(),
            decomposed_ns,
            "{platform}: critical path and decomposition windows differ"
        );
    }
}

#[test]
fn critical_path_cpu_agrees_with_gwp_universe() {
    let runs = instrumented_runs();
    for platform in Platform::ALL {
        let report = platform_agreement(&runs, platform);

        // The registry's CPU counters fold every served query's metered
        // work. The execution records are a subset of that: BigTable's
        // read-modify-write discards the read half's record (only the put
        // survives in the stream), so the registry may see strictly more
        // CPU, and the surplus is exactly the discarded reads.
        let registry_cpu: u64 = runs
            .iter()
            .filter(|r| r.platform == platform)
            .map(|r| r.telemetry.counter_subsystem_sum("cpu"))
            .sum();
        match platform {
            Platform::Spanner | Platform::BigQuery => assert_eq!(
                registry_cpu,
                report.metered_cpu.as_nanos(),
                "{platform}: registry CPU counters != metered CPU"
            ),
            Platform::BigTable => assert!(
                registry_cpu >= report.metered_cpu.as_nanos(),
                "{platform}: registry CPU {registry_cpu} lost work vs records {}",
                report.metered_cpu.as_nanos()
            ),
        }

        // Single-server platforms lay spans out sequentially, so the CPU on
        // the critical path is *exactly* the metered CPU (ratio 1.0). The
        // fan-out platform (BigQuery) pipelines IO under CPU and stripes
        // work across workers, so its path CPU is a strict subset.
        match platform {
            Platform::Spanner | Platform::BigTable => {
                assert!(
                    (report.path_cpu_over_metered() - 1.0).abs() < 1e-12,
                    "{platform}: path/metered CPU ratio {}",
                    report.path_cpu_over_metered()
                );
            }
            Platform::BigQuery => {
                assert!(
                    report.path.ns(PathCategory::Cpu) < report.metered_cpu.as_nanos(),
                    "{platform}: fan-out path CPU should undercut fleet CPU"
                );
            }
        }

        // GWP samples cycles from the same metered universe: the sample
        // count must reconstruct the metered CPU within sampling noise.
        let mut profiler = GwpProfiler::new(GwpConfig::default());
        for run in runs.iter().filter(|r| r.platform == platform) {
            for exec in &run.executions {
                for &(site, time) in exec.cpu_work.entries() {
                    profiler.observe_site(site, time);
                }
            }
        }
        let period = profiler.sample_period().as_nanos();
        let reconstructed = profiler.profile().total_samples() * period;
        let metered = report.metered_cpu.as_nanos();
        // audit: allow(cast, nanosecond totals to f64 for a tolerance ratio)
        let relative = (reconstructed as f64 - metered as f64).abs() / metered as f64;
        assert!(
            relative < 0.10,
            "{platform}: GWP reconstructs {reconstructed} ns from {metered} ns \
             metered ({:.1}% off)",
            relative * 100.0
        );
    }
}
