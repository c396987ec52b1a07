//! The schedule-perturbation checker: the dynamic counterpart of the
//! `determinism` audit rule.
//!
//! One fleet workload runs unperturbed at parallelism 1 to produce baseline
//! artifacts, then re-runs at parallelism 1 and 4 under eight different
//! perturbation seeds — each permuting job dispatch order and
//! completion-consumption order, and on worker threads injecting derived
//! start jitter. Parallelism 1 covers the pool's sequential perturbed path.
//! The fleet schedule includes the sub-shard jobs: every BigTable shard
//! runs as `tablets` independent tablet jobs (assembled after the pool
//! drains), so the perturbation reorders tablets of one shard as well as
//! whole shards. Every file of the fleet bundle (`profile.json`, telemetry
//! metrics/trace/critical-path JSON, collapsed stacks, pprof protobuf,
//! `tail.json`) must come back byte-identical: the
//! byte-equality here is what lets profile diffs across runs and commits be
//! read as real regressions rather than schedule noise.

use hsdp_bench::FleetRun;
use hsdp_platforms::runner::FleetConfig;
use hsdp_simcore::pool::Perturbation;

/// Perturbed schedules swept by the checker (≥ 8 by design).
const PERTURBATION_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 0xD15_0ACE];

/// Every file of one fleet run's bundle, as `(name, bytes)`.
fn run_bundle(parallelism: usize, perturb: Option<Perturbation>) -> Vec<(&'static str, Vec<u8>)> {
    let config = FleetConfig {
        db_queries: 24,
        analytics_queries: 4,
        fact_rows: 300,
        seed: 0x5EED_CAFE,
        parallelism,
        shards: 4,
        tablets: 3,
        perturb,
    };
    FleetRun::new(config)
        .bundle("perturbation")
        .expect("every artifact passes its self-check")
}

#[test]
fn artifacts_are_byte_identical_across_perturbed_schedules() {
    let baseline = run_bundle(1, None);
    assert_eq!(baseline.len(), 7, "the bundle has seven files");
    for (name, bytes) in &baseline {
        assert!(!bytes.is_empty(), "{name} is empty");
    }

    for parallelism in [1, 4] {
        for seed in PERTURBATION_SEEDS {
            let perturbed = run_bundle(parallelism, Some(Perturbation::new(seed)));
            assert_eq!(perturbed.len(), baseline.len());
            for ((name, got), (_, want)) in perturbed.iter().zip(&baseline) {
                assert!(
                    got == want,
                    "{name} moved under perturbation seed {seed} at parallelism {parallelism}"
                );
            }
        }
    }
}
