//! Dapper-style trace spans.
//!
//! The paper profiles Spanner and BigTable "using Dapper, an internal RPC
//! trace logging system that measures and traces RPCs between production
//! services" (Section 4.1). A [`Span`] is one timed operation within a
//! trace; spans form a tree via parent ids and carry a [`SpanKind`] that
//! drives the end-to-end time decomposition.

use hsdp_simcore::time::{SimDuration, SimTime};

/// Identifies one end-to-end request (query) across all services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// What kind of work a span represents — the categories of the Section 4
/// end-to-end breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpanKind {
    /// Local CPU computation.
    Cpu,
    /// Distributed-storage IO (DFS reads/writes, cache fills).
    Io,
    /// Waiting on remote workers: consensus, compaction, shuffle.
    RemoteWork,
    /// Structural/root spans that merely contain others.
    Container,
}

impl SpanKind {
    /// The attribution priority of Section 4.1: overlapped time is
    /// categorized "first into remote work, then IO, then CPU time".
    /// Higher wins.
    #[must_use]
    pub fn priority(self) -> u8 {
        match self {
            SpanKind::RemoteWork => 3,
            SpanKind::Io => 2,
            SpanKind::Cpu => 1,
            SpanKind::Container => 0,
        }
    }
}

/// One timed operation in a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// Parent span, if any (`None` for the root).
    pub parent: Option<SpanId>,
    /// Operation name (e.g. `"spanner.commit"`).
    pub name: &'static str,
    /// Work category.
    pub kind: SpanKind,
    /// Start instant.
    pub start: SimTime,
    /// End instant (>= start).
    pub end: SimTime,
}

impl Span {
    /// The span's duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_matches_paper_rule() {
        assert!(SpanKind::RemoteWork.priority() > SpanKind::Io.priority());
        assert!(SpanKind::Io.priority() > SpanKind::Cpu.priority());
        assert!(SpanKind::Cpu.priority() > SpanKind::Container.priority());
    }

    #[test]
    fn duration_saturates() {
        let span = Span {
            trace: TraceId(1),
            id: SpanId(1),
            parent: None,
            name: "x",
            kind: SpanKind::Cpu,
            start: SimTime::from_nanos(100),
            end: SimTime::from_nanos(40),
        };
        assert_eq!(span.duration(), SimDuration::ZERO);
    }
}
