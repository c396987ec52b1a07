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
//!
//! The share estimates it checks (`category_estimates` and the error and
//! coverage summaries over them) are defined here, their only user; the
//! library keeps `crosscheck::wilson_interval`, which the history
//! detector's noise floor reads too.

use std::collections::BTreeMap;

use hsdp_core::category::{CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::stack::{empty_path, Site};
use hsdp_profiling::crosscheck::wilson_interval;
use hsdp_profiling::gwp::GwpProfiler;
use hsdp_profiling::stacks::StackProfile;
use hsdp_rng::{Rng, StdRng};
use hsdp_simcore::time::SimDuration;
use hsdp_telemetry::category_key;

/// One category's exact share, sampled share, and a binomial confidence
/// interval on the sampled estimate.
///
/// GWP attributes each sample to one category, so the per-category sample
/// count is binomial in the total: the Wilson score interval bounds the
/// true share the sampler is estimating, and the meter's exact nanoseconds
/// say what that true share actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ShareEstimate {
    /// Stable category key (see `hsdp_telemetry::category_key`).
    name: &'static str,
    /// Ground-truth share from exact metered nanoseconds.
    exact_share: f64,
    /// Estimated share from GWP sample counts.
    sampled_share: f64,
    /// Wilson 95% interval lower bound on the sampled share.
    ci_low: f64,
    /// Wilson 95% interval upper bound on the sampled share.
    ci_high: f64,
}

impl ShareEstimate {
    /// Absolute estimation error `|sampled - exact|`.
    fn abs_error(&self) -> f64 {
        (self.sampled_share - self.exact_share).abs()
    }

    /// Whether the confidence interval covers the exact share.
    fn ci_covers_exact(&self) -> bool {
        self.ci_low <= self.exact_share && self.exact_share <= self.ci_high
    }
}

/// Per-category share estimates from a stack profile's paired exact and
/// sampled weights, sorted by exact share descending.
fn category_estimates(stacks: &StackProfile) -> Vec<ShareEstimate> {
    let mut exact: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut sampled: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (_, category, weight) in stacks.cells() {
        let key = category_key(category);
        *exact.entry(key).or_insert(0) += weight.exact_ns;
        *sampled.entry(key).or_insert(0) += weight.samples;
    }
    let total_exact: u64 = exact.values().sum();
    let total_samples: u64 = sampled.values().sum();
    if total_exact == 0 {
        return Vec::new();
    }
    let mut estimates: Vec<ShareEstimate> = exact
        .iter()
        .map(|(&name, &exact_ns)| {
            let samples = sampled.get(name).copied().unwrap_or(0);
            let (ci_low, ci_high) = wilson_interval(samples, total_samples, 1.96);
            ShareEstimate {
                name,
                // audit: allow(cast, nanosecond and sample totals to f64 for shares; exact below 2^53)
                exact_share: exact_ns as f64 / total_exact as f64,
                sampled_share: if total_samples == 0 {
                    0.0
                } else {
                    // audit: allow(cast, nanosecond and sample totals to f64 for shares; exact below 2^53)
                    samples as f64 / total_samples as f64
                },
                ci_low,
                ci_high,
            }
        })
        .collect();
    estimates.sort_by(|a, b| {
        b.exact_share
            .partial_cmp(&a.exact_share)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(b.name))
    });
    estimates
}

/// Mean absolute share error across estimates (0 for empty input).
fn mean_abs_share_error(estimates: &[ShareEstimate]) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    // audit: allow(cast, estimate count to f64 for a mean)
    estimates.iter().map(ShareEstimate::abs_error).sum::<f64>() / estimates.len() as f64
}

/// Fraction of estimates whose confidence interval covers the exact share
/// (0 for empty input).
fn ci_coverage(estimates: &[ShareEstimate]) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    // audit: allow(cast, estimate counts to f64 for a fraction)
    estimates.iter().filter(|e| e.ci_covers_exact()).count() as f64 / estimates.len() as f64
}

/// One labeled unit of CPU work: the site it was charged at and its time.
type Work = (&'static Site, SimDuration);

/// Mixed-category work stream: deterministic in `seed`.
fn workload(seed: u64, items: usize) -> Vec<Work> {
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
            (
                Site::intern(empty_path(), leaf, category),
                SimDuration::from_nanos(ns),
            )
        })
        .collect()
}

fn run_at(period: SimDuration, work: &[Work]) -> (f64, f64, u64) {
    let mut profiler = GwpProfiler::new(period);
    for &(site, time) in work {
        profiler.observe_site(site, time);
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
        let mut profiler = GwpProfiler::new(SimDuration::from_micros(period_us));
        for &(site, time) in &work {
            profiler.observe_site(site, time);
        }
        let stacks = profiler.into_stack_profile();
        category_estimates(&stacks)
            .into_iter()
            .map(|e| (e.name, e.exact_share))
            .collect::<Vec<_>>()
    };
    assert_eq!(exact_at(16), exact_at(1));
}

#[test]
fn category_estimates_pair_exact_and_sampled() {
    let mut stacks = StackProfile::new();
    // 75% read, 25% rpc by exact time; sampled counts slightly off.
    let root = empty_path().child("root");
    stacks.record(
        Site::intern(root, "read", CoreComputeOp::Read.into()),
        SimDuration::from_micros(75),
        70,
    );
    stacks.record(
        Site::intern(root, "rpc", DatacenterTax::Rpc.into()),
        SimDuration::from_micros(25),
        30,
    );
    let estimates = category_estimates(&stacks);
    assert_eq!(estimates.len(), 2);
    assert!(
        (estimates[0].exact_share - 0.75).abs() < 1e-12,
        "sorted desc"
    );
    assert!((estimates[0].sampled_share - 0.70).abs() < 1e-12);
    assert!(estimates.iter().all(ShareEstimate::ci_covers_exact));
    assert!((ci_coverage(&estimates) - 1.0).abs() < 1e-12);
    assert!((mean_abs_share_error(&estimates) - 0.05).abs() < 1e-12);
}

#[test]
fn empty_estimates_are_safe() {
    let estimates = category_estimates(&StackProfile::new());
    assert!(estimates.is_empty());
    assert_eq!(mean_abs_share_error(&estimates), 0.0);
    assert_eq!(ci_coverage(&estimates), 0.0);
}
