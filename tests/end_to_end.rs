//! Cross-crate integration tests: the full pipeline from simulated
//! platforms through profiling into the analytical model, checked against
//! the paper's qualitative findings.

use hsdp::core::accel::Speedup;
use hsdp::core::category::{
    BroadCategory, CoreComputeOp, CpuCategory, DatacenterTax, Platform, SystemTax,
};
use hsdp::core::paper;
use hsdp::core::plan::{AccelerationPlan, InvocationModel};
use hsdp::core::profile::QueryGroup;
use hsdp::fleet::profile_fleet;
use hsdp::platforms::runner::FleetConfig;

fn small_fleet() -> Vec<hsdp::fleet::PlatformRun> {
    profile_fleet(FleetConfig {
        db_queries: 150,
        analytics_queries: 24,
        fact_rows: 3_000,
        seed: 77,
        ..FleetConfig::default()
    })
}

#[test]
fn fleet_covers_all_three_platforms() {
    let runs = small_fleet();
    let platforms: Vec<Platform> = runs.iter().map(|r| r.platform).collect();
    assert_eq!(
        platforms,
        vec![Platform::Spanner, Platform::BigTable, Platform::BigQuery]
    );
    for run in &runs {
        assert!(!run.executions.is_empty());
        let sampled: u64 = CoreComputeOp::for_platform(run.platform)
            .iter()
            .map(|&op| CpuCategory::Core(op))
            .chain(DatacenterTax::ALL.map(CpuCategory::Datacenter))
            .chain(SystemTax::ALL.map(CpuCategory::System))
            .map(|category| run.profile.category_samples(category))
            .sum();
        assert!(sampled > 100, "{}", run.platform);
    }
}

#[test]
fn headline_finding_no_single_category_dominates() {
    // Section 5.2: "neither core compute, nor datacenter taxes, nor system
    // taxes dominate overall compute cycles".
    for run in small_fleet() {
        for broad in BroadCategory::ALL {
            let share = run.profile.broad_share(broad);
            assert!(
                share > 0.05 && share < 0.70,
                "{} {broad}: {share}",
                run.platform
            );
        }
        // Taxes together account for the majority (the paper quotes >72%
        // fleet-wide; allow headroom for the simulation).
        let taxes = run.profile.broad_share(BroadCategory::DatacenterTax)
            + run.profile.broad_share(BroadCategory::SystemTax);
        assert!(taxes > 0.50, "{} taxes {taxes}", run.platform);
    }
}

#[test]
fn databases_are_cpu_heavy_bigquery_is_not() {
    // Figure 2's central contrast.
    let runs = small_fleet();
    let cpu_heavy = |run: &hsdp::fleet::PlatformRun| {
        run.figure2
            .groups
            .iter()
            .find(|r| r.group == QueryGroup::CpuHeavy)
            .map_or(0.0, |r| r.query_fraction)
    };
    let spanner = cpu_heavy(&runs[0]);
    let bigtable = cpu_heavy(&runs[1]);
    let bigquery = cpu_heavy(&runs[2]);
    assert!(spanner > 0.5, "Spanner CPU-heavy {spanner}");
    assert!(bigtable > 0.5, "BigTable CPU-heavy {bigtable}");
    assert!(bigquery < 0.3, "BigQuery CPU-heavy {bigquery}");
    // BigQuery leans on IO and remote work instead.
    let bq_io_remote: f64 = runs[2]
        .figure2
        .groups
        .iter()
        .filter(|r| r.group == QueryGroup::IoHeavy || r.group == QueryGroup::RemoteWorkHeavy)
        .map(|r| r.query_fraction)
        .sum();
    assert!(bq_io_remote > 0.6, "BigQuery IO+remote {bq_io_remote}");
}

#[test]
fn measured_population_reproduces_amdahl_bound() {
    // Applying the Section 6.2 plan to the *measured* populations (not the
    // calibrated paper ones) still shows the paper's core result: hardware-
    // only acceleration is bounded, co-design unlocks far more.
    for run in small_fleet() {
        let plan = AccelerationPlan::uniform(
            paper::accelerated_categories(run.platform),
            Speedup::new(64.0).expect("valid"),
            InvocationModel::Synchronous,
        )
        .expect("fresh plan");
        let bounded = run.population.aggregate_speedup(&plan);
        let codesign = run.population.aggregate_codesign_speedup(&plan);
        assert!(
            bounded < codesign,
            "{}: bounded {bounded} vs codesign {codesign}",
            run.platform
        );
        assert!(bounded >= 1.0);
        assert!(
            codesign > 1.5,
            "{}: co-design should clearly win, got {codesign}",
            run.platform
        );
    }
}

#[test]
fn chained_tracks_async_on_measured_populations() {
    // Section 6.3.2: chaining comes within ~1% of full asynchrony.
    for run in small_fleet() {
        let sync = AccelerationPlan::uniform(
            paper::accelerated_categories(run.platform),
            Speedup::new(8.0).expect("valid"),
            InvocationModel::Synchronous,
        )
        .expect("fresh plan");
        let async_s = run
            .population
            .aggregate_speedup(&sync.with_invocation(InvocationModel::Asynchronous));
        let chained_s = run
            .population
            .aggregate_speedup(&sync.with_invocation(InvocationModel::Chained));
        let sync_s = run.population.aggregate_speedup(&sync);
        assert!(async_s >= sync_s - 1e-9, "{}", run.platform);
        assert!(
            (chained_s - async_s).abs() / async_s < 0.02,
            "{}: chained {chained_s} vs async {async_s}",
            run.platform
        );
    }
}

#[test]
fn trace_decompositions_are_exhaustive() {
    // Every query's CPU + IO + remote + idle must cover its wall clock.
    for run in small_fleet() {
        for exec in &run.executions {
            let d = exec.decomposition();
            let covered = d.cpu + d.io + d.remote + d.idle;
            let drift = covered.as_nanos().abs_diff(d.end_to_end.as_nanos());
            assert!(
                drift <= 2,
                "{} {}: drift {drift}ns",
                run.platform,
                exec.label
            );
        }
    }
}

#[test]
fn measured_populations_audit_clean() {
    // The invariants `audit` checks on the calibrated populations hold on
    // the measured ones too: the Section 4.1 attribution leaves CPU, IO and
    // remote time disjoint, so each Figure 2 row's phase shares sum to 1.
    for run in small_fleet() {
        if let Err(failure) = hsdp::core::audit::audit(&run.population) {
            panic!(
                "{} measured population violates model invariants:\n{failure}",
                run.platform
            );
        }
    }
}
