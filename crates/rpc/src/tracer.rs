//! The trace collector: allocates ids and records finished spans.

use std::collections::BTreeMap;

use hsdp_simcore::time::SimTime;

use crate::span::{Span, SpanId, SpanKind, TraceId};

/// A handle to an open (started but unfinished) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenSpan {
    trace: TraceId,
    id: SpanId,
}

impl OpenSpan {
    /// The span's id (usable as a parent for children).
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// The trace id.
    #[must_use]
    pub fn trace(&self) -> TraceId {
        self.trace
    }
}

/// Collects spans from the simulated platforms.
#[derive(Debug, Default)]
pub struct Tracer {
    next_trace: u64,
    next_span: u64,
    open: BTreeMap<SpanId, Span>,
    finished: Vec<Span>,
    /// Drop spans at finish instead of keeping them (see
    /// [`Tracer::set_discard`]).
    discard: bool,
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// With `discard`, finished spans are dropped rather than kept for
    /// [`Tracer::take_spans`]. Ids are still assigned from the same
    /// counters and a double finish still panics, so a run that discards
    /// some operations' spans numbers every later span as a run that kept
    /// them would.
    pub fn set_discard(&mut self, discard: bool) {
        self.discard = discard;
    }

    /// Allocates a fresh trace id (one per query).
    pub fn new_trace(&mut self) -> TraceId {
        self.next_trace += 1;
        TraceId(self.next_trace)
    }

    /// Starts a span.
    pub fn start(
        &mut self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        kind: SpanKind,
        now: SimTime,
    ) -> OpenSpan {
        self.next_span += 1;
        let id = SpanId(self.next_span);
        self.open.insert(
            id,
            Span {
                trace,
                id,
                parent,
                name,
                kind,
                start: now,
                end: now,
            },
        );
        OpenSpan { trace, id }
    }

    /// Finishes an open span at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the span was already finished (double-finish is a tracer
    /// bug in the caller).
    pub fn finish(&mut self, open: OpenSpan, now: SimTime) {
        let mut span = self
            .open
            .remove(&open.id)
            // audit: allow(panic, documented panic contract: double-finish is a tracer bug in the caller)
            .expect("span finished twice or never started");
        if !self.discard {
            span.end = now.max(span.start);
            self.finished.push(span);
        }
    }

    /// Number of spans still open (should be zero after a query completes).
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Drains all finished spans, in completion order, leaving the tracer
    /// empty for reuse.
    ///
    /// Draining while spans are still open would orphan them: the open
    /// span finishes into a *later* batch, severed from the children just
    /// taken, and every downstream consumer (decomposition, export,
    /// critical path) would see a broken tree. Debug builds assert there
    /// are no open spans; callers must finish every span first and should
    /// check [`Tracer::open_count`] is zero at end-of-run.
    pub fn take_spans(&mut self) -> Vec<Span> {
        debug_assert!(
            self.open.is_empty(),
            "take_spans with {} span(s) still open would orphan them from their children",
            self.open.len()
        );
        std::mem::take(&mut self.finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_simcore::time::SimDuration;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    /// Opens and closes one span, returning its id.
    fn span_at(
        tracer: &mut Tracer,
        trace: TraceId,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanId {
        let open = tracer.start(trace, None, name, SpanKind::Cpu, t(start));
        tracer.finish(open, t(end));
        open.id()
    }

    #[test]
    fn start_finish_lifecycle() {
        let mut tracer = Tracer::new();
        let trace = tracer.new_trace();
        let root = tracer.start(trace, None, "query", SpanKind::Container, t(0));
        let child = tracer.start(trace, Some(root.id()), "read", SpanKind::Io, t(10));
        assert_eq!(tracer.open_count(), 2);
        tracer.finish(child, t(50));
        tracer.finish(root, t(60));
        assert_eq!(tracer.open_count(), 0);
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 2);
        // Completion order: the child finished first.
        assert_eq!(spans[1].name, "query");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].duration(), SimDuration::from_nanos(40));
    }

    #[test]
    fn traces_are_distinct() {
        let mut tracer = Tracer::new();
        let t1 = tracer.new_trace();
        let t2 = tracer.new_trace();
        assert_ne!(t1, t2);
        span_at(&mut tracer, t1, "a", 0, 5);
        span_at(&mut tracer, t2, "b", 0, 5);
        let traces: Vec<TraceId> = tracer.take_spans().iter().map(|s| s.trace).collect();
        assert_eq!(traces, vec![t1, t2]);
    }

    #[test]
    fn finish_clamps_inverted_times() {
        let mut tracer = Tracer::new();
        let trace = tracer.new_trace();
        span_at(&mut tracer, trace, "x", 100, 50);
        assert_eq!(tracer.take_spans()[0].duration(), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn double_finish_panics() {
        let mut tracer = Tracer::new();
        let trace = tracer.new_trace();
        let span = tracer.start(trace, None, "x", SpanKind::Cpu, t(0));
        tracer.finish(span, t(1));
        tracer.finish(span, t(2));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "still open"))]
    fn take_spans_with_open_span_is_a_bug() {
        let mut tracer = Tracer::new();
        let trace = tracer.new_trace();
        let open = tracer.start(trace, None, "orphan", SpanKind::Container, t(0));
        let child = tracer.start(trace, Some(open.id()), "child", SpanKind::Cpu, t(1));
        tracer.finish(child, t(2));
        // Draining now would sever `child` from its still-open parent.
        let taken = tracer.take_spans();
        // Release builds skip the assertion; the drain still happens.
        assert_eq!(taken.len(), 1);
        tracer.finish(open, t(3));
    }

    #[test]
    fn take_spans_resets() {
        let mut tracer = Tracer::new();
        let trace = tracer.new_trace();
        span_at(&mut tracer, trace, "x", 0, 1);
        let taken = tracer.take_spans();
        assert_eq!(taken.len(), 1);
        assert!(tracer.take_spans().is_empty());
    }

    #[test]
    fn discarding_tracer_assigns_the_same_ids() {
        // Two tracers run the same sequence; one discards the first trace's
        // spans. Every later span must carry the ids the keeping tracer
        // gave it, and nothing discarded may surface.
        let mut keep = Tracer::new();
        let mut drop = Tracer::new();
        drop.set_discard(true);
        for tracer in [&mut keep, &mut drop] {
            let trace = tracer.new_trace();
            let root = tracer.start(trace, None, "warmup", SpanKind::Container, t(0));
            span_at(tracer, trace, "cpu", 0, 3);
            tracer.finish(root, t(4));
            assert_eq!(tracer.open_count(), 0);
        }
        let kept_warmup = keep.take_spans();
        assert_eq!(kept_warmup.len(), 2);
        assert!(drop.take_spans().is_empty(), "discarded spans surfaced");
        drop.set_discard(false);
        for tracer in [&mut keep, &mut drop] {
            let trace = tracer.new_trace();
            let root = tracer.start(trace, None, "query", SpanKind::Container, t(5));
            span_at(tracer, trace, "cpu", 5, 9);
            tracer.finish(root, t(9));
        }
        let (kept, dropped) = (keep.take_spans(), drop.take_spans());
        assert_eq!(kept, dropped);
        assert_eq!(kept[0].trace, TraceId(2));
        assert_eq!(kept[0].id, SpanId(4));
    }

    #[test]
    #[should_panic(expected = "finished twice")]
    fn discarding_tracer_still_panics_on_double_finish() {
        let mut tracer = Tracer::new();
        tracer.set_discard(true);
        let trace = tracer.new_trace();
        let span = tracer.start(trace, None, "x", SpanKind::Cpu, t(0));
        tracer.finish(span, t(1));
        tracer.finish(span, t(2));
    }
}
