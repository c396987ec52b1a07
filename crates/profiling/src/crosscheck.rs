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
use hsdp_telemetry::critical_path::{critical_path, CriticalPathBreakdown, PathCategory};

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

/// The Wilson score interval for a binomial proportion: `successes` hits in
/// `trials`, at critical value `z` (1.96 for 95%). Returns `(low, high)`,
/// clamped to `[0, 1]`; `(0, 1)` when there are no trials. It bounds a GWP
/// sampled share (`tests/estimator.rs`) and sets the history detector's
/// noise floor ([`crate::history::wilson_noise_floor`]).
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
}
