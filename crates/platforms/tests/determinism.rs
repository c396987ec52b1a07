//! Thread-count invariance of the parallel fleet driver: the same seed must
//! yield byte-identical merged records and profiling breakdowns at every
//! `parallelism` setting.

use hsdp_core::category::Platform;
use hsdp_platforms::meter::items_breakdown;
use hsdp_platforms::runner::{fold_fleet, run_fleet_telemetry, FleetConfig};
use hsdp_platforms::QueryExecution;

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

/// The fleet's merged per-platform record streams.
fn run(config: FleetConfig) -> Vec<(Platform, Vec<QueryExecution>)> {
    fold_fleet(run_fleet_telemetry(config))
}

/// Full structural equality of two execution records: label, span tree,
/// and every labeled CPU work item.
fn assert_exec_eq(a: &QueryExecution, b: &QueryExecution, context: &str) {
    assert_eq!(a.platform, b.platform, "{context}: platform");
    assert_eq!(a.label, b.label, "{context}: label");
    assert_eq!(a.spans, b.spans, "{context}: spans");
    assert_eq!(a.cpu_work, b.cpu_work, "{context}: cpu work");
}

#[test]
fn fleet_output_is_parallelism_invariant() {
    let baseline = run(small_config(1));
    for parallelism in [2usize, 8] {
        let parallel = run(small_config(parallelism));
        assert_eq!(baseline.len(), parallel.len());
        for ((pa, ea), (pb, eb)) in baseline.iter().zip(&parallel) {
            assert_eq!(pa, pb, "platform order must be canonical");
            assert_eq!(
                ea.len(),
                eb.len(),
                "{pa}: merged record count at parallelism {parallelism}"
            );
            for (i, (x, y)) in ea.iter().zip(eb).enumerate() {
                assert_exec_eq(x, y, &format!("{pa} exec {i} at parallelism {parallelism}"));
            }
            // The profiling view (the labeled cycle breakdown the GWP
            // pipeline consumes) folds to the identical distribution.
            let items_a: Vec<_> = ea.iter().flat_map(|e| e.cpu_work.clone()).collect();
            let items_b: Vec<_> = eb.iter().flat_map(|e| e.cpu_work.clone()).collect();
            assert_eq!(
                items_breakdown(&items_a),
                items_breakdown(&items_b),
                "{pa}: profiling breakdown at parallelism {parallelism}"
            );
        }
    }
}

#[test]
fn fleet_output_is_schedule_perturbation_invariant() {
    use hsdp_simcore::pool::Perturbation;
    let baseline = run(small_config(1));
    for seed in 0..4u64 {
        let perturbed = run(FleetConfig {
            perturb: Some(Perturbation::new(seed)),
            ..small_config(4)
        });
        assert_eq!(baseline.len(), perturbed.len());
        for ((pa, ea), (pb, eb)) in baseline.iter().zip(&perturbed) {
            assert_eq!(pa, pb, "platform order must be canonical");
            assert_eq!(ea.len(), eb.len(), "{pa}: record count at perturb {seed}");
            for (i, (x, y)) in ea.iter().zip(eb).enumerate() {
                assert_exec_eq(x, y, &format!("{pa} exec {i} at perturb {seed}"));
            }
        }
    }
}

#[test]
fn different_seeds_change_output() {
    // Guard against the degenerate "deterministic because constant" failure.
    let a = run(small_config(2));
    let b = run(FleetConfig {
        seed: 0x00DD_5EED,
        ..small_config(2)
    });
    let labels = |fleet: &[(Platform, Vec<QueryExecution>)]| -> Vec<&str> {
        fleet
            .iter()
            .flat_map(|(_, execs)| execs.iter().map(|e| e.label))
            .collect()
    };
    assert_ne!(labels(&a), labels(&b), "seed must steer the traffic mix");
}
