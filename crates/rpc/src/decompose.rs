//! Trace decomposition: turning a span tree into the end-to-end time
//! breakdown of Section 4.
//!
//! The paper's methodology: "we categorized overlapped time first into
//! remote work, then IO, then CPU time, assuming that CPU time was blocked
//! on remote work and IO". [`decompose`] implements exactly that rule with
//! an interval sweep; [`decompose_proportional`] is the ablation variant
//! that splits overlapped time evenly among the active categories.

use hsdp_simcore::time::{SimDuration, SimTime};

use crate::span::{Span, SpanKind};

/// The end-to-end breakdown of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct E2eDecomposition {
    /// Time attributed to local CPU.
    pub cpu: SimDuration,
    /// Time attributed to distributed-storage IO.
    pub io: SimDuration,
    /// Time attributed to remote work.
    pub remote: SimDuration,
    /// Wall-clock end-to-end time (first start to last end).
    pub end_to_end: SimDuration,
    /// End-to-end time in which no categorized span was active.
    pub idle: SimDuration,
}

impl E2eDecomposition {
    /// Share of end-to-end time on CPU (0 for empty traces).
    #[must_use]
    pub fn cpu_share(&self) -> f64 {
        share(self.cpu, self.end_to_end)
    }

    /// Share on IO.
    #[must_use]
    pub fn io_share(&self) -> f64 {
        share(self.io, self.end_to_end)
    }

    /// Share on remote work.
    #[must_use]
    pub fn remote_share(&self) -> f64 {
        share(self.remote, self.end_to_end)
    }
}

fn share(part: SimDuration, whole: SimDuration) -> f64 {
    if whole.is_zero() {
        0.0
    } else {
        // audit: allow(cast, nanosecond counts to f64 for a dimensionless ratio; exact below 2^53 ns)
        part.as_nanos() as f64 / whole.as_nanos() as f64
    }
}

/// How overlapped time is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Attribution {
    /// The paper's rule: remote work ≻ IO ≻ CPU.
    #[default]
    Priority,
    /// Split evenly among active categories (ablation).
    Proportional,
}

/// Decomposes a trace with the paper's priority rule.
#[must_use]
pub fn decompose(spans: &[Span]) -> E2eDecomposition {
    decompose_with(spans, Attribution::Priority)
}

/// Decomposes a trace splitting overlap evenly (ablation variant).
#[must_use]
pub fn decompose_proportional(spans: &[Span]) -> E2eDecomposition {
    decompose_with(spans, Attribution::Proportional)
}

/// A trace's wall-clock window: the first start and the last end over
/// *all* its spans, containers included. `None` for an empty trace. The
/// window's width is the trace's end-to-end time.
#[must_use]
pub fn trace_window(spans: &[Span]) -> Option<(SimTime, SimTime)> {
    let (first, rest) = spans.split_first()?;
    Some(rest.iter().fold((first.start, first.end), |(lo, hi), s| {
        (lo.min(s.start), hi.max(s.end))
    }))
}

/// Decomposes a trace with the chosen attribution rule.
#[must_use]
pub fn decompose_with(spans: &[Span], attribution: Attribution) -> E2eDecomposition {
    let Some((first, last)) = trace_window(spans) else {
        return E2eDecomposition::default();
    };
    let end_to_end = last.since(first);
    let categorized = || {
        spans
            .iter()
            .filter(|s| s.kind != SpanKind::Container && !s.duration().is_zero())
    };

    let mut cpu = 0f64;
    let mut io = 0f64;
    let mut remote = 0f64;
    let mut covered = 0u64;

    // Elementary-interval sweep over all categorized span boundaries, in
    // ascending order. Each window runs from `lo` to the least boundary
    // above it, found in the same pass that finds the spans active over
    // the window: no boundary lies strictly inside a window, so a span that
    // starts by `lo` and ends after it covers the whole window.
    let mut lo = categorized().map(|s| s.start).min();
    while let Some(window_lo) = lo {
        let mut active = [false; 3]; // [cpu, io, remote]
        let mut hi: Option<SimTime> = None;
        for span in categorized() {
            if span.start <= window_lo && span.end > window_lo {
                match span.kind {
                    SpanKind::Cpu => active[0] = true,
                    SpanKind::Io => active[1] = true,
                    SpanKind::RemoteWork => active[2] = true,
                    SpanKind::Container => {}
                }
            }
            for boundary in [span.start, span.end] {
                if boundary > window_lo && hi.is_none_or(|hi| boundary < hi) {
                    hi = Some(boundary);
                }
            }
        }
        let Some(window_hi) = hi else {
            break;
        };
        lo = hi;
        if !(active[0] || active[1] || active[2]) {
            continue;
        }
        let width = window_hi.since(window_lo).as_nanos();
        covered += width;
        let w = width as f64;
        match attribution {
            Attribution::Priority => {
                if active[2] {
                    remote += w;
                } else if active[1] {
                    io += w;
                } else {
                    cpu += w;
                }
            }
            Attribution::Proportional => {
                let n = active.iter().filter(|&&a| a).count() as f64;
                if active[0] {
                    cpu += w / n;
                }
                if active[1] {
                    io += w / n;
                }
                if active[2] {
                    remote += w / n;
                }
            }
        }
    }

    E2eDecomposition {
        cpu: SimDuration::from_nanos(cpu.round() as u64),
        io: SimDuration::from_nanos(io.round() as u64),
        remote: SimDuration::from_nanos(remote.round() as u64),
        end_to_end,
        idle: SimDuration::from_nanos(end_to_end.as_nanos().saturating_sub(covered)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanId, TraceId};
    use hsdp_rng::{Rng, StdRng};

    /// The sweep [`decompose_with`] replaced, kept as its oracle: the
    /// categorized spans and their boundaries collected into `Vec`s, and
    /// the boundaries sorted.
    fn reference_decompose_with(spans: &[Span], attribution: Attribution) -> E2eDecomposition {
        let categorized: Vec<&Span> = spans
            .iter()
            .filter(|s| s.kind != SpanKind::Container && !s.duration().is_zero())
            .collect();
        let first_start = spans.iter().map(|s| s.start).min();
        let last_end = spans.iter().map(|s| s.end).max();
        let (Some(first), Some(last)) = (first_start, last_end) else {
            return E2eDecomposition::default();
        };
        let end_to_end = last.since(first);
        let mut boundaries: Vec<SimTime> =
            categorized.iter().flat_map(|s| [s.start, s.end]).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let (mut cpu, mut io, mut remote, mut covered) = (0f64, 0f64, 0f64, 0u64);
        for window in boundaries.windows(2) {
            let (lo, hi) = (window[0], window[1]);
            let width = hi.since(lo).as_nanos();
            if width == 0 {
                continue;
            }
            let mut active = [false; 3];
            for span in &categorized {
                if span.start <= lo && span.end >= hi {
                    match span.kind {
                        SpanKind::Cpu => active[0] = true,
                        SpanKind::Io => active[1] = true,
                        SpanKind::RemoteWork => active[2] = true,
                        SpanKind::Container => {}
                    }
                }
            }
            if !(active[0] || active[1] || active[2]) {
                continue;
            }
            covered += width;
            let w = width as f64;
            match attribution {
                Attribution::Priority => {
                    if active[2] {
                        remote += w;
                    } else if active[1] {
                        io += w;
                    } else {
                        cpu += w;
                    }
                }
                Attribution::Proportional => {
                    let n = active.iter().filter(|&&a| a).count() as f64;
                    if active[0] {
                        cpu += w / n;
                    }
                    if active[1] {
                        io += w / n;
                    }
                    if active[2] {
                        remote += w / n;
                    }
                }
            }
        }
        E2eDecomposition {
            cpu: SimDuration::from_nanos(cpu.round() as u64),
            io: SimDuration::from_nanos(io.round() as u64),
            remote: SimDuration::from_nanos(remote.round() as u64),
            end_to_end,
            idle: SimDuration::from_nanos(end_to_end.as_nanos().saturating_sub(covered)),
        }
    }

    #[test]
    fn scanning_sweep_matches_the_sorting_sweep_on_random_traces() {
        // Small time universes force equal timestamps and shared
        // boundaries; zero-length, backwards and container spans mix in,
        // and odd widths make the proportional split round.
        const KINDS: [SpanKind; 4] = [
            SpanKind::Cpu,
            SpanKind::Io,
            SpanKind::RemoteWork,
            SpanKind::Container,
        ];
        let mut rng = StdRng::seed_from_u64(0x5EE9);
        for trace in 0..20_000 {
            let horizon = rng.random_range(1..=200u64);
            let len = rng.random_range(0..=10usize);
            let spans: Vec<Span> = (0..len)
                .map(|_| {
                    let start = rng.random_range(0..horizon);
                    let end = match rng.random_range(0..5u32) {
                        0 => start,
                        1 => start.saturating_sub(rng.random_range(1..5u64)),
                        _ => start + rng.random_range(1..=horizon),
                    };
                    span(KINDS[rng.random_range(0..KINDS.len())], start, end)
                })
                .collect();
            for attribution in [Attribution::Priority, Attribution::Proportional] {
                assert_eq!(
                    decompose_with(&spans, attribution),
                    reference_decompose_with(&spans, attribution),
                    "trace {trace} {attribution:?}: {spans:?}"
                );
            }
            assert_eq!(
                trace_window(&spans).map(|(lo, hi)| hi.since(lo)),
                (!spans.is_empty()).then(|| decompose(&spans).end_to_end)
            );
        }
    }

    fn span(kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(start * 1000 + end),
            parent: None,
            name: "span",
            kind,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn disjoint_spans_attribute_directly() {
        let spans = vec![
            span(SpanKind::Cpu, 0, 10),
            span(SpanKind::Io, 10, 30),
            span(SpanKind::RemoteWork, 30, 60),
        ];
        let d = decompose(&spans);
        assert_eq!(d.cpu.as_nanos(), 10);
        assert_eq!(d.io.as_nanos(), 20);
        assert_eq!(d.remote.as_nanos(), 30);
        assert_eq!(d.end_to_end.as_nanos(), 60);
        assert_eq!(d.idle.as_nanos(), 0);
        assert!((d.remote_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_goes_to_remote_first() {
        // CPU active the whole time, remote work overlapping the middle.
        let spans = vec![
            span(SpanKind::Cpu, 0, 100),
            span(SpanKind::RemoteWork, 20, 60),
            span(SpanKind::Io, 50, 80),
        ];
        let d = decompose(&spans);
        // remote: 20..60 = 40; io: 60..80 = 20; cpu: 0..20 + 80..100 = 40.
        assert_eq!(d.remote.as_nanos(), 40);
        assert_eq!(d.io.as_nanos(), 20);
        assert_eq!(d.cpu.as_nanos(), 40);
        // Attribution is exhaustive: shares sum to 1 with no idle.
        assert_eq!(d.idle.as_nanos(), 0);
    }

    #[test]
    fn proportional_splits_overlap() {
        let spans = vec![span(SpanKind::Cpu, 0, 100), span(SpanKind::Io, 0, 100)];
        let d = decompose_proportional(&spans);
        assert_eq!(d.cpu.as_nanos(), 50);
        assert_eq!(d.io.as_nanos(), 50);
        // Priority rule gives everything to IO.
        let p = decompose(&spans);
        assert_eq!(p.io.as_nanos(), 100);
        assert_eq!(p.cpu.as_nanos(), 0);
    }

    #[test]
    fn idle_gaps_are_tracked() {
        let spans = vec![span(SpanKind::Cpu, 0, 10), span(SpanKind::Cpu, 50, 60)];
        let d = decompose(&spans);
        assert_eq!(d.cpu.as_nanos(), 20);
        assert_eq!(d.end_to_end.as_nanos(), 60);
        assert_eq!(d.idle.as_nanos(), 40);
    }

    #[test]
    fn containers_define_e2e_but_not_categories() {
        let spans = vec![
            span(SpanKind::Container, 0, 200),
            span(SpanKind::Cpu, 50, 100),
        ];
        let d = decompose(&spans);
        assert_eq!(d.end_to_end.as_nanos(), 200);
        assert_eq!(d.cpu.as_nanos(), 50);
        assert_eq!(d.idle.as_nanos(), 150);
    }

    #[test]
    fn empty_trace_is_zero() {
        let d = decompose(&[]);
        assert_eq!(d, E2eDecomposition::default());
        assert_eq!(d.cpu_share(), 0.0);
    }

    #[test]
    fn zero_length_spans_ignored() {
        let spans = vec![span(SpanKind::Cpu, 5, 5), span(SpanKind::Io, 0, 10)];
        let d = decompose(&spans);
        assert_eq!(d.io.as_nanos(), 10);
        assert_eq!(d.cpu.as_nanos(), 0);
    }

    #[test]
    fn shares_sum_to_at_most_one() {
        let spans = vec![
            span(SpanKind::Cpu, 0, 35),
            span(SpanKind::Io, 20, 70),
            span(SpanKind::RemoteWork, 60, 100),
            span(SpanKind::Cpu, 90, 120),
        ];
        for attribution in [Attribution::Priority, Attribution::Proportional] {
            let d = decompose_with(&spans, attribution);
            let total = d.cpu_share() + d.io_share() + d.remote_share();
            // Nanosecond rounding can push the sum a hair over 1.
            assert!(total <= 1.0 + 0.02, "{attribution:?}: {total}");
            let covered = d.cpu + d.io + d.remote + d.idle;
            let drift = covered.as_nanos().abs_diff(d.end_to_end.as_nanos());
            // Proportional splits round each category independently: allow
            // a couple of nanoseconds of rounding drift.
            assert!(drift <= 2, "{attribution:?}: drift {drift}ns");
        }
    }
}
