//! Cross-checking the two attribution views of the same execution.
//!
//! The paper measures the fleet twice: GWP samples *cycles* (which code
//! burns CPU, Section 5.1) and Dapper traces measure *waiting* (what a
//! request's wall-clock went to, Section 4.1). The telemetry crate adds a
//! third view, the critical-path walk. These views must cohere: for a trace
//! whose spans lay out sequentially, the CPU nanoseconds on the critical
//! path are exactly the metered CPU time that GWP samples from, and every
//! view's category fractions must partition their own total. [`agree`]
//! sums the critical path and the metered CPU over a set of traces, the
//! two figures `critical_path.json`, `hsdp summary` and the fleet checks
//! read; tests set the Section 4.1 interval decomposition beside them.

use hsdp_rpc::span::Span;
use hsdp_simcore::time::SimDuration;
use hsdp_telemetry::category_key;
use hsdp_telemetry::critical_path::{critical_path, CriticalPathBreakdown, PathCategory};

use crate::stacks::StackProfile;

/// One trace-set's agreement report between the critical-path walk and
/// the metered CPU total.
#[derive(Debug, Clone, Copy)]
pub struct PathAgreement {
    /// Critical-path attribution summed over all traces.
    pub path: CriticalPathBreakdown,
    /// Metered CPU (the GWP sampling universe) summed over all traces.
    pub metered_cpu: SimDuration,
}

impl PathAgreement {
    /// Sum of the critical-path category fractions — 1.0 within float
    /// rounding for any non-empty trace set, because the underlying
    /// nanoseconds partition the windows exactly.
    #[must_use]
    pub fn fraction_sum(&self) -> f64 {
        PathCategory::ALL
            .iter()
            .map(|&c| self.path.fraction(c))
            .sum()
    }

    /// Critical-path CPU ns over metered CPU ns (1.0 when the CPU spans
    /// lie fully on the path and the platform runs queries on one server).
    #[must_use]
    pub fn path_cpu_over_metered(&self) -> f64 {
        let metered = self.metered_cpu.as_nanos();
        if metered == 0 {
            return 0.0;
        }
        // audit: allow(cast, nanosecond counts to f64 for a dimensionless ratio; exact below 2^53 ns)
        self.path.ns(PathCategory::Cpu) as f64 / metered as f64
    }
}

/// Sums the critical path and the metered CPU over `(trace spans, metered
/// cpu)` pairs.
///
/// Each element is one request's span tree plus the CPU time its meter
/// charged (the denominator GWP samples against).
#[must_use]
pub fn agree<'a, I>(traces: I) -> PathAgreement
where
    I: IntoIterator<Item = (&'a [Span], SimDuration)>,
{
    let mut report = PathAgreement {
        path: CriticalPathBreakdown::new(),
        metered_cpu: SimDuration::ZERO,
    };
    for (spans, metered) in traces {
        report.path.merge(&critical_path(spans));
        report.metered_cpu += metered;
    }
    report
}

// ---------------------------------------------------------------------------
// Sampling-error bounds: exact metered shares vs GWP sampled shares.
// ---------------------------------------------------------------------------

/// One category's exact share, sampled share, and a binomial confidence
/// interval on the sampled estimate.
///
/// GWP attributes each sample to one category, so the per-category sample
/// count is binomial in the total: the Wilson score interval bounds the
/// true share the sampler is estimating, and the meter's exact nanoseconds
/// say what that true share actually is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareEstimate {
    /// Stable category key (see [`hsdp_telemetry::category_key`]).
    pub name: &'static str,
    /// Ground-truth share from exact metered nanoseconds.
    pub exact_share: f64,
    /// Estimated share from GWP sample counts.
    pub sampled_share: f64,
    /// Wilson 95% interval lower bound on the sampled share.
    pub ci_low: f64,
    /// Wilson 95% interval upper bound on the sampled share.
    pub ci_high: f64,
}

impl ShareEstimate {
    /// Absolute estimation error `|sampled - exact|`.
    #[must_use]
    pub fn abs_error(&self) -> f64 {
        (self.sampled_share - self.exact_share).abs()
    }

    /// Whether the confidence interval covers the exact share.
    #[must_use]
    pub fn ci_covers_exact(&self) -> bool {
        self.ci_low <= self.exact_share && self.exact_share <= self.ci_high
    }
}

/// The Wilson score interval for a binomial proportion: `successes` hits in
/// `trials`, at critical value `z` (1.96 for 95%). Returns `(low, high)`,
/// clamped to `[0, 1]`; `(0, 1)` when there are no trials.
#[must_use]
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    // audit: allow(cast, sample counts to f64 for the interval formula; exact below 2^53)
    let n = trials as f64;
    // audit: allow(cast, sample counts to f64 for the interval formula; exact below 2^53)
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let margin = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - margin).max(0.0), (center + margin).min(1.0))
}

/// Per-category share estimates from a stack profile's paired exact and
/// sampled weights, sorted by exact share descending.
#[must_use]
pub fn category_estimates(stacks: &StackProfile) -> Vec<ShareEstimate> {
    use std::collections::BTreeMap;
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
#[must_use]
pub fn mean_abs_share_error(estimates: &[ShareEstimate]) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    // audit: allow(cast, estimate count to f64 for a mean)
    estimates.iter().map(ShareEstimate::abs_error).sum::<f64>() / estimates.len() as f64
}

/// Fraction of estimates whose confidence interval covers the exact share
/// (0 for empty input).
#[must_use]
pub fn ci_coverage(estimates: &[ShareEstimate]) -> f64 {
    if estimates.is_empty() {
        return 0.0;
    }
    // audit: allow(cast, estimate counts to f64 for a fraction)
    estimates.iter().filter(|e| e.ci_covers_exact()).count() as f64 / estimates.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_rpc::decompose::decompose;
    use hsdp_rpc::span::{SpanId, SpanKind, TraceId};
    use hsdp_simcore::time::SimTime;

    fn span(id: u64, kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(id),
            parent: if id == 1 { None } else { Some(SpanId(1)) },
            name: "span",
            kind,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn sequential_trace_agrees_exactly() {
        // cpu [0,40] -> remote [40,90] -> io [90,100] under a root.
        let spans = vec![
            span(1, SpanKind::Container, 0, 100),
            span(2, SpanKind::Cpu, 0, 40),
            span(3, SpanKind::RemoteWork, 40, 90),
            span(4, SpanKind::Io, 90, 100),
        ];
        let report = agree([(spans.as_slice(), SimDuration::from_nanos(40))]);
        assert!((report.fraction_sum() - 1.0).abs() < 1e-9);
        assert!((report.path_cpu_over_metered() - 1.0).abs() < 1e-12);
        assert_eq!(report.path.ns(PathCategory::Cpu), 40);
        assert_eq!(decompose(&spans).cpu.as_nanos(), 40);
        let cpu_span_wall: SimDuration = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Cpu)
            .map(Span::duration)
            .sum();
        assert_eq!(cpu_span_wall.as_nanos(), 40);
    }

    #[test]
    fn overlap_views_differ_but_partition() {
        // io [0,100] with cpu [50,120] pipelined on top: the Section 4.1
        // priority rule charges the overlap to IO, the critical path
        // charges the slowest chain (CPU back to 50). Both partition their
        // own window.
        let spans = vec![
            span(1, SpanKind::Container, 0, 120),
            span(2, SpanKind::Io, 0, 100),
            span(3, SpanKind::Cpu, 50, 120),
        ];
        let report = agree([(spans.as_slice(), SimDuration::from_nanos(70))]);
        assert!((report.fraction_sum() - 1.0).abs() < 1e-9);
        assert_eq!(report.path.ns(PathCategory::Cpu), 70);
        let decomposition = decompose(&spans);
        assert_eq!(decomposition.cpu.as_nanos(), 20);
        assert_eq!(report.path.total_ns(), decomposition.end_to_end.as_nanos());
    }

    #[test]
    fn empty_input_reports_zero() {
        let report = agree(std::iter::empty::<(&[Span], SimDuration)>());
        assert_eq!(report.fraction_sum(), 0.0);
        assert_eq!(report.path_cpu_over_metered(), 0.0);
    }

    #[test]
    fn wilson_interval_behaves() {
        // No data: vacuous interval.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        // Half the samples: symmetric around 0.5 and strictly inside [0,1].
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!(lo > 0.39 && lo < 0.5, "{lo}");
        assert!(hi > 0.5 && hi < 0.61, "{hi}");
        assert!(((lo + hi) / 2.0 - 0.5).abs() < 1e-9);
        // Extremes stay clamped and never degenerate to a point.
        let (lo0, hi0) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 0.1);
        // More trials tighten the interval.
        let (lo1k, hi1k) = wilson_interval(500, 1000, 1.96);
        assert!(hi1k - lo1k < hi - lo);
    }

    #[test]
    fn category_estimates_pair_exact_and_sampled() {
        use hsdp_core::category::{CoreComputeOp, DatacenterTax};
        let mut stacks = StackProfile::new();
        // 75% read, 25% rpc by exact time; sampled counts slightly off.
        stacks.record(
            &["root"],
            "read",
            CoreComputeOp::Read.into(),
            SimDuration::from_micros(75),
            70,
        );
        stacks.record(
            &["root"],
            "rpc",
            DatacenterTax::Rpc.into(),
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
}
