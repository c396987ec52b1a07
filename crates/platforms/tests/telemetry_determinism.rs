//! Parallelism invariance of the telemetry pipeline: the merged fleet
//! metrics registry must serialize byte-identically at every `parallelism`
//! setting, and each shard registry covers only its own traffic.

use hsdp_platforms::runner::{merge_fleet_metrics, run_fleet_telemetry, FleetConfig};

fn small_config(parallelism: usize) -> FleetConfig {
    FleetConfig {
        db_queries: 60,
        analytics_queries: 9,
        fact_rows: 600,
        seed: 0x00DE_7EC7,
        parallelism,
        shards: 4,
        tablets: 2,
        perturb: None,
    }
}

#[test]
fn merged_metrics_are_parallelism_invariant() {
    let baseline = merge_fleet_metrics(&run_fleet_telemetry(small_config(1))).to_json();
    assert!(
        baseline.contains("spanner/queries") && baseline.contains("bigtable/queries"),
        "merged registry is missing platform counters:\n{baseline}"
    );
    for parallelism in [2usize, 4] {
        let parallel =
            merge_fleet_metrics(&run_fleet_telemetry(small_config(parallelism))).to_json();
        assert_eq!(
            parallel, baseline,
            "metrics JSON diverged at parallelism {parallelism}"
        );
    }
}

#[test]
fn shard_registries_carry_shard_local_counts() {
    // Each shard's registry covers only its own traffic slice: the merged
    // query counter equals the sum of per-shard query counters, and every
    // shard served some queries.
    let runs = run_fleet_telemetry(small_config(1));
    let merged = merge_fleet_metrics(&runs);
    for (platform, counter) in [
        (hsdp_core::category::Platform::Spanner, "spanner"),
        (hsdp_core::category::Platform::BigTable, "bigtable"),
        (hsdp_core::category::Platform::BigQuery, "bigquery"),
    ] {
        let shard_sum: u64 = runs
            .iter()
            .filter(|r| r.platform == platform)
            .map(|r| r.telemetry.counter_subsystem_sum(counter))
            .sum();
        assert_eq!(
            merged.counter_subsystem_sum(counter),
            shard_sum,
            "{counter}: merged total != sum of shard totals"
        );
        assert!(shard_sum > 0, "{counter}: no telemetry recorded");
    }
}
