//! Critical-path analysis: the Dapper tree-walk of the paper's Section 3.
//!
//! A trace's wall-clock is attributed by walking its span tree *backwards*
//! from the end: at every instant the path charges the child chain that
//! finishes latest (the slowest chain — the one the request actually waited
//! on), recursing into that child, and falls back to the span's own kind
//! for uncovered self time. The result is a per-category breakdown whose
//! nanoseconds partition the trace's end-to-end window exactly, so category
//! fractions sum to 1.0 up to float rounding — the complement to the
//! GWP-style CPU fractions, which weigh *cycles* rather than *waiting*.

use hsdp_rpc::decompose::trace_window;
use hsdp_rpc::span::{Span, SpanId, SpanKind};

/// Ancestor-chain cap: traces here are a few levels deep; anything deeper
/// is a malformed parent link and is attributed leaf-style instead of
/// recursed into.
const MAX_DEPTH: usize = 64;

/// What a critical-path nanosecond was spent waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PathCategory {
    /// Local CPU computation on the path.
    Cpu,
    /// Distributed-storage IO on the path.
    Io,
    /// Remote work (consensus, compaction, shuffle) on the path.
    Remote,
    /// Container-span self time: orchestration gaps between children.
    Orchestration,
    /// Time outside every span tree (gaps between a trace's roots).
    Idle,
}

impl PathCategory {
    /// All categories in presentation order.
    pub const ALL: [PathCategory; 5] = [
        PathCategory::Cpu,
        PathCategory::Io,
        PathCategory::Remote,
        PathCategory::Orchestration,
        PathCategory::Idle,
    ];

    /// Stable lower-case name for serialization.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PathCategory::Cpu => "cpu",
            PathCategory::Io => "io",
            PathCategory::Remote => "remote",
            PathCategory::Orchestration => "orchestration",
            PathCategory::Idle => "idle",
        }
    }

    fn index(self) -> usize {
        match self {
            PathCategory::Cpu => 0,
            PathCategory::Io => 1,
            PathCategory::Remote => 2,
            PathCategory::Orchestration => 3,
            PathCategory::Idle => 4,
        }
    }

    /// The category a span's *self time* on the path is charged to.
    fn of_kind(kind: SpanKind) -> PathCategory {
        match kind {
            SpanKind::Cpu => PathCategory::Cpu,
            SpanKind::Io => PathCategory::Io,
            SpanKind::RemoteWork => PathCategory::Remote,
            SpanKind::Container => PathCategory::Orchestration,
        }
    }
}

/// Integer-exact critical-path attribution of one or more traces.
///
/// The per-category nanoseconds of a single trace partition its end-to-end
/// window exactly; merged breakdowns partition the summed windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CriticalPathBreakdown {
    ns: [u64; 5],
}

impl CriticalPathBreakdown {
    /// An empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds attributed to `category`.
    #[must_use]
    pub fn ns(&self, category: PathCategory) -> u64 {
        self.ns[category.index()]
    }

    /// Total attributed nanoseconds (equals summed end-to-end windows).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// The fraction of the critical path in `category` (0.0 when empty).
    /// Fractions across [`PathCategory::ALL`] sum to 1.0 ± 1e-9.
    #[must_use]
    pub fn fraction(&self, category: PathCategory) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            // audit: allow(cast, nanosecond counts to f64 for a dimensionless ratio; exact below 2^53 ns)
            self.ns(category) as f64 / total as f64
        }
    }

    /// All `(category, ns, fraction)` rows in presentation order.
    #[must_use]
    pub fn rows(&self) -> Vec<(PathCategory, u64, f64)> {
        PathCategory::ALL
            .iter()
            .map(|&c| (c, self.ns(c), self.fraction(c)))
            .collect()
    }

    /// Folds another breakdown into this one (commutative, associative).
    pub fn merge(&mut self, other: &CriticalPathBreakdown) {
        for (slot, add) in self.ns.iter_mut().zip(other.ns) {
            *slot += add;
        }
    }

    fn charge(&mut self, category: PathCategory, lo: u64, hi: u64) {
        if hi > lo {
            self.ns[category.index()] += hi - lo;
        }
    }
}

/// Walks the span tree(s) in `spans` and attributes the trace's wall-clock
/// window to the slowest child chain.
///
/// `spans` is one trace's span set (multiple roots are allowed — composed
/// operations like read-modify-write concatenate two trees; gaps between
/// trees are charged to [`PathCategory::Idle`]). An empty slice yields an
/// empty breakdown.
#[must_use]
pub fn critical_path(spans: &[Span]) -> CriticalPathBreakdown {
    let mut out = CriticalPathBreakdown::new();
    let Some((window_lo, window_hi)) = trace_window(spans) else {
        return out;
    };
    let index = TraceIndex::new(spans);
    // Treat the roots as children of a virtual Idle-kind container over the
    // whole window.
    index.walk_children(
        index.roots(),
        PathCategory::Idle,
        window_lo.as_nanos(),
        window_hi.as_nanos(),
        0,
        &mut out,
    );
    out
}

/// A span's place in a [`TraceIndex`]: `(is child, parent id, position)`.
/// A root's parent id is 0.
type Slot = (bool, u64, usize);

/// One trace's span tree, indexed once, in one allocation.
///
/// `tree` holds one [`Slot`] per span, sorted: the roots come first, then
/// each parent's children as one contiguous run. Positions break ties, so
/// roots and every child run keep slice order, which the walk's tie-break
/// relies on. A span whose parent is missing from the set (or is itself)
/// is a root. The parent-present test scans the trace, as each step of the
/// walk scans a container's children, so indexing costs no more than the
/// walk's own `O(n²)` worst case and on the few-span traces a fleet records
/// beats sorting the ids for a binary search.
struct TraceIndex<'a> {
    spans: &'a [Span],
    tree: Vec<Slot>,
    roots: usize,
}

impl<'a> TraceIndex<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut tree: Vec<Slot> = spans
            .iter()
            .enumerate()
            .map(|(position, span)| match span.parent {
                Some(parent) if parent != span.id && spans.iter().any(|s| s.id == parent) => {
                    (true, parent.0, position)
                }
                _ => (false, 0, position),
            })
            .collect();
        tree.sort_unstable();
        let roots = tree.partition_point(|&(child, _, _)| !child);
        TraceIndex { spans, tree, roots }
    }

    fn roots(&self) -> &[Slot] {
        &self.tree[..self.roots]
    }

    /// The spans whose parent is `id`, in slice order.
    fn children(&self, id: SpanId) -> &[Slot] {
        let kids = &self.tree[self.roots..];
        let first = kids.partition_point(|&(_, parent, _)| parent < id.0);
        let end = kids.partition_point(|&(_, parent, _)| parent <= id.0);
        &kids[first..end]
    }

    /// Attributes `[lo, hi]` of `span`'s timeline: slowest-finishing
    /// children claim their segments (recursively); the remainder is span
    /// self time.
    fn walk_span(
        &self,
        span: &Span,
        lo: u64,
        hi: u64,
        depth: usize,
        out: &mut CriticalPathBreakdown,
    ) {
        let own = PathCategory::of_kind(span.kind);
        let kids = self.children(span.id);
        if !kids.is_empty() && depth < MAX_DEPTH {
            self.walk_children(kids, own, lo, hi, depth, out);
        } else {
            out.charge(own, lo, hi);
        }
    }

    /// The backward walk shared by real containers and the virtual root:
    /// pick, at each cursor, the child active before the cursor whose
    /// (clamped) end is latest; charge the gap above it to `self_category`
    /// and recurse into the child below it.
    ///
    /// A chosen child's start (clamped to `lo`) becomes the new cursor, and
    /// only a child that starts before the cursor is eligible, so no child
    /// is chosen twice and the walk needs no record of the ones it took.
    fn walk_children(
        &self,
        kids: &[Slot],
        self_category: PathCategory,
        lo: u64,
        hi: u64,
        depth: usize,
        out: &mut CriticalPathBreakdown,
    ) {
        let mut cursor = hi;
        while cursor > lo {
            // The candidate maximizing min(end, cursor), tie-broken by (end,
            // id) and then by slice order, so the walk is deterministic for
            // identical timestamps.
            let mut best: Option<((u64, u64, u64), &Span)> = None;
            for &(_, _, position) in kids {
                let kid = &self.spans[position];
                if kid.start.as_nanos() >= cursor {
                    continue;
                }
                let rank = (kid.end.as_nanos().min(cursor), kid.end.as_nanos(), kid.id.0);
                if best.is_none_or(|(best_rank, _)| best_rank < rank) {
                    best = Some((rank, kid));
                }
            }
            let Some(((clamped_end, _, _), kid)) = best else {
                break;
            };
            // Gap between the chain's latest child end and the cursor is the
            // parent's own waiting.
            out.charge(self_category, clamped_end, cursor);
            let kid_lo = kid.start.as_nanos().max(lo);
            self.walk_span(kid, kid_lo, clamped_end, depth + 1, out);
            cursor = kid_lo;
        }
        out.charge(self_category, lo, cursor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_rng::{Rng, StdRng};
    use hsdp_rpc::span::{SpanKind, TraceId};
    use hsdp_simcore::time::SimTime;
    use std::collections::BTreeMap;

    /// The walk [`critical_path`] replaced, kept as its oracle: an id map
    /// and a child map per trace, and a `consumed` flag per child.
    fn reference_critical_path(spans: &[Span]) -> CriticalPathBreakdown {
        fn walk_span(
            span: &Span,
            lo: u64,
            hi: u64,
            children: &BTreeMap<SpanId, Vec<&Span>>,
            depth: usize,
            out: &mut CriticalPathBreakdown,
        ) {
            let own = PathCategory::of_kind(span.kind);
            match children.get(&span.id) {
                Some(kids) if depth < MAX_DEPTH => {
                    walk_children(kids, own, lo, hi, children, depth, out);
                }
                _ => out.charge(own, lo, hi),
            }
        }

        fn walk_children(
            kids: &[&Span],
            self_category: PathCategory,
            lo: u64,
            hi: u64,
            children: &BTreeMap<SpanId, Vec<&Span>>,
            depth: usize,
            out: &mut CriticalPathBreakdown,
        ) {
            let mut consumed = vec![false; kids.len()];
            let mut cursor = hi;
            while cursor > lo {
                let mut best: Option<(u64, u64, u64, usize)> = None;
                for (i, kid) in kids.iter().enumerate() {
                    if consumed[i] || kid.start.as_nanos() >= cursor {
                        continue;
                    }
                    let clamped = kid.end.as_nanos().min(cursor);
                    let rank = (clamped, kid.end.as_nanos(), kid.id.0, i);
                    if best.is_none_or(|b| (b.0, b.1, b.2) < (rank.0, rank.1, rank.2)) {
                        best = Some(rank);
                    }
                }
                let Some((clamped_end, _, _, index)) = best else {
                    break;
                };
                consumed[index] = true;
                let kid = kids[index];
                out.charge(self_category, clamped_end, cursor);
                let kid_lo = kid.start.as_nanos().max(lo);
                walk_span(kid, kid_lo, clamped_end, children, depth + 1, out);
                cursor = kid_lo;
            }
            out.charge(self_category, lo, cursor);
        }

        let mut out = CriticalPathBreakdown::new();
        if spans.is_empty() {
            return out;
        }
        let ids: BTreeMap<SpanId, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut children: BTreeMap<SpanId, Vec<&Span>> = BTreeMap::new();
        let mut roots: Vec<&Span> = Vec::new();
        for span in spans {
            match span.parent {
                Some(parent) if parent != span.id && ids.contains_key(&parent) => {
                    children.entry(parent).or_default().push(span);
                }
                _ => roots.push(span),
            }
        }
        let window_lo = spans.iter().map(|s| s.start.as_nanos()).min().unwrap_or(0);
        let window_hi = spans.iter().map(|s| s.end.as_nanos()).max().unwrap_or(0);
        walk_children(
            &roots,
            PathCategory::Idle,
            window_lo,
            window_hi,
            &children,
            0,
            &mut out,
        );
        out
    }

    /// A random trace over a small id and time universe, so it has every
    /// shape the walk must survive: several roots, missing,
    /// self-referential and cyclic parents, duplicate ids, zero-length and
    /// backwards spans, and equal timestamps.
    fn random_trace(rng: &mut StdRng) -> Vec<Span> {
        const KINDS: [SpanKind; 4] = [
            SpanKind::Cpu,
            SpanKind::Io,
            SpanKind::RemoteWork,
            SpanKind::Container,
        ];
        let len = rng.random_range(0..=12usize);
        let ids = rng.random_range(1..=14u64);
        (0..len)
            .map(|_| {
                let id = rng.random_range(0..ids);
                let parent = match rng.random_range(0..5u32) {
                    0 => None,
                    1 => Some(id),
                    _ => Some(rng.random_range(0..=ids)),
                };
                let start = rng.random_range(0..40u64);
                let end = match rng.random_range(0..5u32) {
                    0 => start,
                    1 => start.saturating_sub(rng.random_range(1..4u64)),
                    _ => start + rng.random_range(1..40u64),
                };
                let kind = KINDS[rng.random_range(0..KINDS.len())];
                span(id, parent, kind, start, end)
            })
            .collect()
    }

    #[test]
    fn indexed_walk_matches_the_map_walk_on_random_traces() {
        let mut rng = StdRng::seed_from_u64(0x0C21_71CA);
        for trace in 0..20_000 {
            let spans = random_trace(&mut rng);
            assert_eq!(
                critical_path(&spans),
                reference_critical_path(&spans),
                "trace {trace}: {spans:?}"
            );
        }
    }

    #[test]
    fn chains_deeper_than_the_cap_match_the_map_walk() {
        // A nested chain twice as deep as MAX_DEPTH, with random kinds and
        // a random sibling under each link; and the same chain closed into
        // a cycle hanging off a root through a duplicate id.
        let mut rng = StdRng::seed_from_u64(0xDEE9);
        for _ in 0..50 {
            let depth = 2 * MAX_DEPTH as u64;
            let mut spans = Vec::new();
            for level in 0..depth {
                let parent = level.checked_sub(1);
                let kind = if rng.random_bool(0.5) {
                    SpanKind::Container
                } else {
                    SpanKind::RemoteWork
                };
                spans.push(span(level, parent, kind, level, 4 * depth - level));
                let start = rng.random_range(level..3 * depth);
                spans.push(span(
                    depth + level,
                    parent,
                    SpanKind::Cpu,
                    start,
                    start + rng.random_range(0..depth),
                ));
            }
            assert_eq!(critical_path(&spans), reference_critical_path(&spans));
            spans[0].parent = Some(SpanId(depth - 1));
            spans.push(span(0, None, SpanKind::Io, 0, 5 * depth));
            assert_eq!(critical_path(&spans), reference_critical_path(&spans));
        }
    }

    fn span(id: u64, parent: Option<u64>, kind: SpanKind, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(id),
            parent: parent.map(SpanId),
            name: "span",
            kind,
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
        }
    }

    #[test]
    fn sequential_children_partition_exactly() {
        let spans = vec![
            span(1, None, SpanKind::Container, 0, 100),
            span(2, Some(1), SpanKind::Cpu, 0, 40),
            span(3, Some(1), SpanKind::RemoteWork, 40, 70),
            span(4, Some(1), SpanKind::Io, 70, 90),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.ns(PathCategory::Cpu), 40);
        assert_eq!(cp.ns(PathCategory::Remote), 30);
        assert_eq!(cp.ns(PathCategory::Io), 20);
        // 90..100 is the container's own tail.
        assert_eq!(cp.ns(PathCategory::Orchestration), 10);
        assert_eq!(cp.total_ns(), 100);
        let total: f64 = PathCategory::ALL.iter().map(|&c| cp.fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_charge_slowest_chain() {
        // IO runs [0,100]; CPU pipelines on top of it [50,120]. The path is
        // CPU back to 50, then IO covers the rest.
        let spans = vec![
            span(1, None, SpanKind::Container, 0, 120),
            span(2, Some(1), SpanKind::Io, 0, 100),
            span(3, Some(1), SpanKind::Cpu, 50, 120),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.ns(PathCategory::Cpu), 70);
        assert_eq!(cp.ns(PathCategory::Io), 50);
        assert_eq!(cp.total_ns(), 120);
    }

    #[test]
    fn nested_grandchildren_are_walked() {
        let spans = vec![
            span(1, None, SpanKind::Container, 0, 100),
            span(2, Some(1), SpanKind::RemoteWork, 10, 90),
            span(3, Some(2), SpanKind::Cpu, 20, 50),
        ];
        let cp = critical_path(&spans);
        // Remote self time: [10,20] and [50,90]; CPU child claims [20,50];
        // container claims [0,10] and [90,100].
        assert_eq!(cp.ns(PathCategory::Remote), 50);
        assert_eq!(cp.ns(PathCategory::Cpu), 30);
        assert_eq!(cp.ns(PathCategory::Orchestration), 20);
        assert_eq!(cp.total_ns(), 100);
    }

    #[test]
    fn multi_root_gaps_are_idle() {
        let spans = vec![
            span(1, None, SpanKind::Cpu, 0, 30),
            span(2, None, SpanKind::Io, 50, 80),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.ns(PathCategory::Cpu), 30);
        assert_eq!(cp.ns(PathCategory::Io), 30);
        assert_eq!(cp.ns(PathCategory::Idle), 20);
        assert_eq!(cp.total_ns(), 80);
    }

    #[test]
    fn empty_and_degenerate_traces() {
        assert_eq!(critical_path(&[]).total_ns(), 0);
        let zero = vec![span(1, None, SpanKind::Cpu, 5, 5)];
        assert_eq!(critical_path(&zero).total_ns(), 0);
        // Self-referential parent is treated as a root, not recursed.
        let cyclic = vec![span(7, Some(7), SpanKind::Cpu, 0, 10)];
        assert_eq!(critical_path(&cyclic).ns(PathCategory::Cpu), 10);
    }

    #[test]
    fn zero_duration_children_do_not_distort_the_partition() {
        // A zero-duration marker span sits between two real children; it
        // must not claim any path time, and the window still partitions.
        let spans = vec![
            span(1, None, SpanKind::Container, 0, 100),
            span(2, Some(1), SpanKind::Cpu, 0, 40),
            span(3, Some(1), SpanKind::Io, 40, 40),
            span(4, Some(1), SpanKind::RemoteWork, 40, 100),
        ];
        let cp = critical_path(&spans);
        assert_eq!(
            cp.ns(PathCategory::Io),
            0,
            "zero-duration span charges nothing"
        );
        assert_eq!(cp.ns(PathCategory::Cpu), 40);
        assert_eq!(cp.ns(PathCategory::Remote), 60);
        assert_eq!(cp.total_ns(), 100, "partition stays exact");
    }

    #[test]
    fn zero_duration_span_in_a_gap_terminates_and_charges_parent() {
        // The marker lands inside the container's own time: the walk must
        // consume it once (no infinite loop) and charge the surrounding gap
        // to orchestration.
        let spans = vec![
            span(1, None, SpanKind::Container, 0, 100),
            span(2, Some(1), SpanKind::Cpu, 0, 40),
            span(3, Some(1), SpanKind::Io, 70, 70),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.ns(PathCategory::Cpu), 40);
        assert_eq!(cp.ns(PathCategory::Io), 0);
        assert_eq!(cp.ns(PathCategory::Orchestration), 60);
        assert_eq!(cp.total_ns(), 100);
    }

    #[test]
    fn zero_duration_siblings_at_one_instant() {
        // A burst of markers at the same timestamp, plus one real span. The
        // deterministic (end, id) tie-break keeps the walk finite and the
        // real span gets the whole window.
        let mut spans = vec![span(1, None, SpanKind::Container, 0, 50)];
        for id in 2..10 {
            spans.push(span(id, Some(1), SpanKind::RemoteWork, 25, 25));
        }
        spans.push(span(10, Some(1), SpanKind::Cpu, 0, 50));
        let cp = critical_path(&spans);
        assert_eq!(cp.ns(PathCategory::Cpu), 50);
        assert_eq!(cp.ns(PathCategory::Remote), 0);
        assert_eq!(cp.total_ns(), 50);
    }

    #[test]
    fn zero_duration_root_between_real_roots() {
        let spans = vec![
            span(1, None, SpanKind::Cpu, 0, 30),
            span(2, None, SpanKind::RemoteWork, 40, 40),
            span(3, None, SpanKind::Io, 50, 80),
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.ns(PathCategory::Cpu), 30);
        assert_eq!(cp.ns(PathCategory::Remote), 0);
        assert_eq!(cp.ns(PathCategory::Io), 30);
        assert_eq!(
            cp.ns(PathCategory::Idle),
            20,
            "gaps unaffected by the marker"
        );
        assert_eq!(cp.total_ns(), 80);
    }

    #[test]
    fn merge_accumulates() {
        let a = critical_path(&[span(1, None, SpanKind::Cpu, 0, 10)]);
        let b = critical_path(&[span(1, None, SpanKind::Io, 0, 5)]);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.ns(PathCategory::Cpu), 10);
        assert_eq!(merged.ns(PathCategory::Io), 5);
        assert_eq!(merged.total_ns(), 15);
    }
}
