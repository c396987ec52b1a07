//! Property test for the GWP estimator's convergence: sampled category
//! shares approach the exact metered shares as the sample period shrinks,
//! and the Wilson confidence intervals cover the truth at roughly their
//! nominal rate.
//!
//! The workload is a synthetic but heterogeneous stream of labeled work
//! items (mixed categories, lognormal-ish durations, interleaved order) so
//! the estimator sees the same shape of input the platforms produce:
//! many sub-period items that only fire through the residual accumulator,
//! plus occasional large items worth several samples each.

use hsdp_core::category::{CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::stack::empty_path;
use hsdp_profiling::crosscheck::{category_estimates, ci_coverage, mean_abs_share_error};
use hsdp_profiling::gwp::{GwpConfig, GwpProfiler, LeafWork};
use hsdp_rng::{Rng, StdRng};
use hsdp_simcore::time::SimDuration;

/// Mixed-category work stream: deterministic in `seed`.
fn workload(seed: u64, items: usize) -> Vec<LeafWork> {
    let mut rng = StdRng::seed_from_u64(seed);
    let menu: [(CpuCategory, &'static str, u64); 6] = [
        (CpuCategory::Core(CoreComputeOp::Read), "read_path", 900),
        (
            CpuCategory::Core(CoreComputeOp::Filter),
            "predicate_eval",
            400,
        ),
        (
            CpuCategory::Datacenter(DatacenterTax::Protobuf),
            "proto_encode",
            300,
        ),
        (
            CpuCategory::Datacenter(DatacenterTax::Rpc),
            "rpc_dispatch",
            150,
        ),
        (
            CpuCategory::System(SystemTax::OperatingSystems),
            "sys_write",
            120,
        ),
        (
            CpuCategory::System(SystemTax::OtherMemoryOps),
            "arena_alloc",
            60,
        ),
    ];
    (0..items)
        .map(|_| {
            let (category, leaf, mean_ns) = menu[rng.random_range(0..menu.len())];
            // Skewed durations: most items far below the sample period,
            // a tail several periods long.
            let scale: f64 = rng.random::<f64>() * rng.random::<f64>() * 6.0 + 0.1;
            // audit: allow(cast, synthetic duration in ns fits u64 comfortably)
            let ns = ((mean_ns as f64) * scale) as u64 + 1;
            LeafWork {
                category,
                leaf,
                time: SimDuration::from_nanos(ns),
                stack: empty_path(),
            }
        })
        .collect()
}

fn run_at(period: SimDuration, work: &[LeafWork]) -> (f64, f64, u64) {
    let mut profiler = GwpProfiler::new(GwpConfig {
        sample_period: period,
    });
    for item in work {
        profiler.observe(item);
    }
    let stacks = profiler.into_stack_profile();
    let estimates = category_estimates(&stacks);
    assert_eq!(estimates.len(), 6, "every category estimated");
    (
        mean_abs_share_error(&estimates),
        ci_coverage(&estimates),
        stacks.total_samples(),
    )
}

#[test]
fn sampled_shares_converge_to_exact_as_period_shrinks() {
    let work = workload(0xE57, 60_000);
    let periods = [
        SimDuration::from_micros(16),
        SimDuration::from_micros(4),
        SimDuration::from_micros(1),
    ];
    let mut last_error = f64::INFINITY;
    let mut last_samples = 0u64;
    for &period in &periods {
        let (error, coverage, samples) = run_at(period, &work);
        assert!(
            samples > last_samples,
            "shorter period draws more samples: {samples} vs {last_samples}"
        );
        assert!(
            error < last_error,
            "error shrinks with the period: {error} at {period} vs {last_error}"
        );
        assert!(
            coverage >= 0.5,
            "Wilson CIs should usually cover the exact share (got {coverage} at {period})"
        );
        last_error = error;
        last_samples = samples;
    }
    // At the finest period the estimate is tight in absolute terms.
    assert!(
        last_error < 0.01,
        "1us period keeps mean share error under 1%: {last_error}"
    );
}

#[test]
fn convergence_holds_across_workload_seeds() {
    // The monotone-in-expectation claim should not hinge on one lucky
    // stream: check coarse-vs-fine improvement over several seeds.
    for seed in [1u64, 2, 3, 4, 5] {
        let work = workload(seed, 20_000);
        let (coarse, _, _) = run_at(SimDuration::from_micros(16), &work);
        let (fine, coverage, _) = run_at(SimDuration::from_micros(1), &work);
        assert!(
            fine < coarse,
            "seed {seed}: fine-period error {fine} should undercut coarse {coarse}"
        );
        assert!(coverage >= 0.5, "seed {seed}: coverage {coverage}");
    }
}

#[test]
fn exact_shares_are_period_invariant() {
    // The exact side of the estimate comes from the meter, not the
    // sampler: it must be identical at every period.
    let work = workload(0xBEEF, 5_000);
    let exact_at = |period_us: u64| {
        let mut profiler = GwpProfiler::new(GwpConfig {
            sample_period: SimDuration::from_micros(period_us),
        });
        for item in &work {
            profiler.observe(item);
        }
        let stacks = profiler.into_stack_profile();
        category_estimates(&stacks)
            .into_iter()
            .map(|e| (e.name, e.exact_share))
            .collect::<Vec<_>>()
    };
    assert_eq!(exact_at(16), exact_at(1));
}
