//! CPU work metering: how the simulated platforms charge labeled CPU time.
//!
//! Platforms execute *real* code (protobuf encoding, compression, LSM
//! merges, hash joins) but run under a simulated clock. The [`WorkMeter`]
//! bridges the two: every unit of work is charged simulated time from the
//! calibrated cost model ([`crate::costs`]) and labeled with the fine
//! [`CpuCategory`] and a leaf-function name, exactly the shape GWP samples
//! arrive in (Section 5.1).
//!
//! A charge is stored as a 16-byte `(site, time)` entry of a [`CpuWork`]:
//! the `(path, leaf, category)` it lands on is an interned
//! [`Site`](hsdp_core::stack::Site), shared by every charge at that site
//! across the process. Readers see each entry as a [`CpuWorkItem`].

use hsdp_core::category::CpuCategory;
use hsdp_core::component::CpuBreakdown;
use hsdp_core::stack::{FramePath, Site, SiteMap};
use hsdp_core::units::Seconds;
use hsdp_simcore::time::SimDuration;
use hsdp_telemetry::{category_key, MetricsRegistry};

/// One labeled unit of CPU work: the view of a [`CpuWork`] entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuWorkItem {
    /// Fine-grained cycle category.
    pub category: CpuCategory,
    /// Leaf function name, as a GWP sample would report it.
    pub leaf: &'static str,
    /// Enclosing call-frame path (outermost first), excluding the leaf.
    pub stack: FramePath,
    /// Simulated CPU time charged.
    pub time: SimDuration,
}

/// One stored charge: where it landed and how long it ran.
type Entry = (&'static Site, SimDuration);

/// One query's labeled CPU work, in charge order: a 16-byte
/// `(site, time)` entry per charge, held at exact capacity once handed
/// over by [`WorkMeter::take`].
///
/// Iterating yields [`CpuWorkItem`] views by value. Equality is by
/// content: sites are interned, so equal sites are the same site.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CpuWork {
    entries: Vec<Entry>,
}

impl CpuWork {
    /// Number of charges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was charged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The charges as [`CpuWorkItem`] views, in charge order.
    #[must_use]
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.entries.iter())
    }

    /// The stored `(site, time)` entries, for readers that key on site
    /// identity.
    #[must_use]
    pub fn entries(&self) -> &[(&'static Site, SimDuration)] {
        &self.entries
    }

    /// Appends `other`'s charges after this work's, at exact capacity.
    pub fn extend(&mut self, other: CpuWork) {
        self.entries.reserve_exact(other.entries.len());
        self.entries.extend(other.entries);
    }
}

impl FromIterator<CpuWorkItem> for CpuWork {
    /// Interns each item's site.
    fn from_iter<I: IntoIterator<Item = CpuWorkItem>>(items: I) -> Self {
        let mut entries: Vec<Entry> = items
            .into_iter()
            .map(|item| {
                (
                    Site::intern(item.stack, item.leaf, item.category),
                    item.time,
                )
            })
            .collect();
        entries.shrink_to_fit();
        CpuWork { entries }
    }
}

impl<'a> IntoIterator for &'a CpuWork {
    type Item = CpuWorkItem;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a [`CpuWork`]'s charges as [`CpuWorkItem`] views.
#[derive(Debug, Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, Entry>);

impl Iterator for Iter<'_> {
    type Item = CpuWorkItem;

    fn next(&mut self) -> Option<CpuWorkItem> {
        self.0.next().map(|&(site, time)| CpuWorkItem {
            category: site.category(),
            leaf: site.leaf(),
            stack: site.stack(),
            time,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// Accumulates labeled CPU work during query execution.
///
/// Besides the work, the meter maintains a *frame stack*: scopes pushed
/// via [`WorkMeter::scope`] (or [`WorkMeter::push_frame`]) tag every
/// subsequent charge with the enclosing frame path, so each charge carries
/// the full stack a GWP interrupt would see. A push resolves the child
/// path through the parent's interned handle and a charge resolves its
/// site through the current path's, so neither allocates once the process
/// has seen that scope and site.
///
/// A totals-only meter (`WorkMeter::totals_only`) keeps the running total
/// and the frame stack but no work: the meter for work whose records no
/// artifact reads, such as warmup.
#[derive(Debug, Default)]
pub struct WorkMeter {
    work: CpuWork,
    total: SimDuration,
    totals_only: bool,
    /// The path charges are attributed to.
    path: FramePath,
    /// The enclosing paths, outermost first, restored on pop.
    parents: Vec<FramePath>,
}

impl WorkMeter {
    /// An empty meter that keeps every charge.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty meter that keeps only the total charged.
    #[must_use]
    pub fn totals_only() -> Self {
        WorkMeter {
            totals_only: true,
            ..Self::default()
        }
    }

    /// Folds in another meter, such as a scan partial's: adds its total
    /// and appends its charges as made, stacks included.
    pub fn absorb(&mut self, other: WorkMeter) {
        self.total += other.total;
        if !self.totals_only {
            self.work.entries.extend(other.work.entries);
        }
    }

    /// The current frame stack, outermost first.
    #[must_use]
    pub fn frames(&self) -> &[&'static str] {
        &self.path
    }

    /// Pushes a call frame; prefer the RAII [`WorkMeter::scope`] guard.
    pub fn push_frame(&mut self, name: &'static str) {
        self.parents.push(self.path);
        self.path = self.path.child(name);
    }

    /// Pops the innermost call frame (no-op when the stack is empty).
    pub fn pop_frame(&mut self) {
        self.path = self.parents.pop().unwrap_or_default();
    }

    /// Enters a named call frame for the guard's lifetime. The guard derefs
    /// to the meter, so charging through it attributes work to the frame:
    ///
    /// ```
    /// # use hsdp_platforms::meter::WorkMeter;
    /// # use hsdp_core::category::CoreComputeOp;
    /// # use hsdp_simcore::time::SimDuration;
    /// let mut meter = WorkMeter::new();
    /// {
    ///     let mut m = meter.scope("consensus");
    ///     m.charge(CoreComputeOp::Write, "paxos_propose", SimDuration::from_nanos(5));
    /// }
    /// let item = meter.items().iter().next().unwrap();
    /// assert_eq!(&*item.stack, &["consensus"]);
    /// assert!(meter.frames().is_empty());
    /// ```
    pub fn scope(&mut self, name: &'static str) -> FrameScope<'_> {
        self.push_frame(name);
        FrameScope { meter: self }
    }

    /// Charges `time` of CPU work.
    pub fn charge(
        &mut self,
        category: impl Into<CpuCategory>,
        leaf: &'static str,
        time: SimDuration,
    ) {
        if time.is_zero() {
            return;
        }
        self.total += time;
        if self.totals_only {
            return;
        }
        let site = Site::intern(self.path, leaf, category.into());
        self.work.entries.push((site, time));
    }

    /// Charges byte-proportional work (`bytes * ns_per_byte`).
    pub fn charge_bytes(
        &mut self,
        category: impl Into<CpuCategory>,
        leaf: &'static str,
        bytes: u64,
        ns_per_byte: f64,
    ) {
        self.charge(
            category,
            leaf,
            // audit: allow(cast, u64 byte count to f64 for per-byte costing is exact below 2^53)
            SimDuration::from_nanos((bytes as f64 * ns_per_byte).round() as u64),
        );
    }

    /// Charges per-operation work (`ops * ns_per_op`).
    pub fn charge_ops(
        &mut self,
        category: impl Into<CpuCategory>,
        leaf: &'static str,
        ops: u64,
        ns_per_op: f64,
    ) {
        self.charge(
            category,
            leaf,
            SimDuration::from_nanos((ops as f64 * ns_per_op).round() as u64),
        );
    }

    /// Total CPU time charged.
    #[must_use]
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// The work charged so far (none on a totals-only meter).
    #[must_use]
    pub fn items(&self) -> &CpuWork {
        &self.work
    }

    /// Hands over the work at exact capacity and resets the total, leaving
    /// the meter empty.
    pub fn take(&mut self) -> CpuWork {
        self.total = SimDuration::ZERO;
        // A copy, not a shrink in place: shrinking leaves a small hole per
        // query in the heap, and later allocations scattered into those
        // holes measurably slowed the BigTable warmup that follows traffic.
        let work = CpuWork {
            entries: self.work.entries.as_slice().to_vec(),
        };
        self.work.entries.clear();
        work
    }
}

/// RAII guard for a meter call frame: created by [`WorkMeter::scope`],
/// pops the frame on drop. Derefs (mutably) to the underlying meter, so
/// scopes nest naturally — calling `.scope(..)` on a guard pushes a child
/// frame onto the same meter.
#[derive(Debug)]
pub struct FrameScope<'a> {
    meter: &'a mut WorkMeter,
}

impl std::ops::Deref for FrameScope<'_> {
    type Target = WorkMeter;

    fn deref(&self) -> &WorkMeter {
        self.meter
    }
}

impl std::ops::DerefMut for FrameScope<'_> {
    fn deref_mut(&mut self) -> &mut WorkMeter {
        self.meter
    }
}

impl Drop for FrameScope<'_> {
    fn drop(&mut self) {
        self.meter.pop_frame();
    }
}

/// The meter for a warmup op, whose record no artifact reads: totals only,
/// unless `telemetry` is recording, since [`CpuCounters`] folds items.
pub(crate) fn warmup_meter(telemetry: &MetricsRegistry) -> WorkMeter {
    if telemetry.is_enabled() {
        WorkMeter::new()
    } else {
        WorkMeter::totals_only()
    }
}

/// Charged CPU summed per site until it is added to a registry's
/// `("cpu", category, leaf)` nanosecond counters, so the registry's `"cpu"`
/// subsystem sum equals the meter totals *exactly* — the invariant the
/// telemetry unit tests pin. A charge finds its sum by site identity; the
/// sums fold per `(category, leaf text)`, as the registry keys them, only
/// when drained.
#[derive(Debug, Default)]
pub(crate) struct CpuCounters {
    /// Index into `sums` of each site seen.
    slots: SiteMap<usize>,
    /// Per-site sums, in first-seen order.
    sums: Vec<(&'static Site, u64)>,
}

impl CpuCounters {
    /// Adds each charge's time to its site's sum, if `registry` records.
    pub(crate) fn add(&mut self, registry: &MetricsRegistry, work: &CpuWork) {
        if !registry.is_enabled() {
            return;
        }
        for &(site, time) in work.entries() {
            let next = self.sums.len();
            let slot = *self.slots.entry(site).or_insert(next);
            match self.sums.get_mut(slot) {
                Some((_, sum)) => *sum += time.as_nanos(),
                None => self.sums.push((site, time.as_nanos())),
            }
        }
    }

    /// Adds every sum to `registry` (once per key) and clears the sums.
    pub(crate) fn drain_into(&mut self, registry: &mut MetricsRegistry) {
        let mut keyed: Vec<(CpuCategory, &'static str, u64)> = Vec::new();
        for (site, ns) in self.sums.drain(..) {
            let (category, leaf) = (site.category(), site.leaf());
            match keyed
                .iter_mut()
                .find(|(c, l, _)| *c == category && *l == leaf)
            {
                Some((_, _, sum)) => *sum += ns,
                None => keyed.push((category, leaf, ns)),
            }
        }
        self.slots.clear();
        for (category, leaf, ns) in keyed {
            registry.counter_add(("cpu", category_key(category), leaf), ns);
        }
    }
}

/// Converts charged work into a breakdown.
#[must_use]
pub fn items_breakdown(work: &CpuWork) -> CpuBreakdown {
    work.iter()
        .map(|i| (i.category, Seconds::new(i.time.as_secs_f64())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::{CoreComputeOp, DatacenterTax};
    use hsdp_core::stack::empty_path;

    #[test]
    fn charge_accumulates_and_labels() {
        let mut meter = WorkMeter::new();
        meter.charge(
            CoreComputeOp::Read,
            "btree_lookup",
            SimDuration::from_micros(2),
        );
        meter.charge_bytes(DatacenterTax::Protobuf, "proto_encode", 1000, 2.0);
        meter.charge_ops(DatacenterTax::MemAllocation, "arena_alloc", 10, 50.0);
        assert_eq!(meter.items().len(), 3);
        assert_eq!(meter.total().as_nanos(), 2_000 + 2_000 + 500);
        let b = items_breakdown(meter.items());
        assert!(b.share(CpuCategory::from(CoreComputeOp::Read)) > 0.4);
    }

    #[test]
    fn zero_charges_are_dropped() {
        let mut meter = WorkMeter::new();
        meter.charge(CoreComputeOp::Read, "noop", SimDuration::ZERO);
        meter.charge_bytes(CoreComputeOp::Read, "noop", 0, 5.0);
        assert!(meter.items().is_empty());
        assert_eq!(meter.total(), SimDuration::ZERO);
    }

    /// The per-item mirror [`CpuCounters`] replaced, kept as its oracle:
    /// one registry update per item, read from the items as made rather
    /// than from interned sites.
    fn record_cpu_items(
        registry: &mut MetricsRegistry,
        items: impl IntoIterator<Item = CpuWorkItem>,
    ) {
        for item in items {
            registry.counter_add(
                ("cpu", category_key(item.category), item.leaf),
                item.time.as_nanos(),
            );
        }
    }

    /// Folds `work` through [`CpuCounters`] into a fresh registry.
    fn folded(work: &CpuWork) -> MetricsRegistry {
        let mut counters = CpuCounters::default();
        let mut registry = MetricsRegistry::new();
        counters.add(&registry, work);
        counters.drain_into(&mut registry);
        registry
    }

    #[test]
    fn telemetry_cpu_total_equals_meter_total() {
        let mut meter = WorkMeter::new();
        meter.charge(
            CoreComputeOp::Read,
            "btree_lookup",
            SimDuration::from_nanos(1_234),
        );
        meter.charge_bytes(DatacenterTax::Protobuf, "proto_encode", 777, 1.5);
        meter.charge_ops(DatacenterTax::MemAllocation, "malloc", 9, 51.0);
        let registry = folded(meter.items());
        assert_eq!(
            registry.counter_subsystem_sum("cpu"),
            meter.total().as_nanos(),
            "telemetry cpu counters must mirror the meter exactly"
        );
        // Per-leaf counters carry the category key.
        assert_eq!(
            registry.counter(("cpu", "core.read", "btree_lookup")),
            1_234
        );
    }

    #[test]
    fn cpu_counters_respect_a_disabled_registry() {
        let mut meter = WorkMeter::new();
        meter.charge(CoreComputeOp::Write, "put", SimDuration::from_nanos(10));
        let mut counters = CpuCounters::default();
        let mut registry = MetricsRegistry::disabled();
        counters.add(&registry, meter.items());
        assert!(
            counters.sums.is_empty(),
            "nothing folded for a disabled registry"
        );
        counters.drain_into(&mut registry);
        assert_eq!(registry.counter_subsystem_sum("cpu"), 0);
    }

    #[test]
    fn cpu_counters_match_the_per_item_oracle() {
        use hsdp_core::category::SystemTax;
        use hsdp_rng::{Rng, StdRng};
        // One leaf text at two addresses must land on one key, as it does
        // in the registry; one leaf under two categories on two keys.
        let twin: &'static str = Box::leak(String::from("malloc").into_boxed_str());
        assert!(!std::ptr::eq(twin, "malloc"));
        let keys: [(CpuCategory, &'static str); 6] = [
            (DatacenterTax::MemAllocation.into(), "malloc"),
            (DatacenterTax::MemAllocation.into(), twin),
            (SystemTax::Stl.into(), "malloc"),
            (CoreComputeOp::Read.into(), "btree_lookup"),
            (DatacenterTax::Protobuf.into(), "proto_encode"),
            (SystemTax::Edac.into(), "crc32c"),
        ];
        let mut rng = StdRng::seed_from_u64(0xF01D);
        for round in 0..50 {
            let len = rng.random_range(0..=200usize);
            let items: Vec<CpuWorkItem> = (0..len)
                .map(|_| {
                    let (category, leaf) = keys[rng.random_range(0..keys.len())];
                    CpuWorkItem {
                        category,
                        leaf,
                        stack: empty_path(),
                        time: SimDuration::from_nanos(rng.random_range(1..=1_000_000u64)),
                    }
                })
                .collect();
            let work: CpuWork = items.iter().copied().collect();
            let mut oracle = MetricsRegistry::new();
            record_cpu_items(&mut oracle, items.iter().copied());
            // Folding in two batches equals folding once.
            let mut counters = CpuCounters::default();
            let mut registry = MetricsRegistry::new();
            let (head, tail) = items.split_at(len / 3);
            counters.add(&registry, &head.iter().copied().collect());
            counters.add(&registry, &tail.iter().copied().collect());
            // One sum per registry key: the twin leaf folds with its text.
            assert_eq!(
                counters.sums.len(),
                oracle.counters().len(),
                "round {round}"
            );
            counters.drain_into(&mut registry);
            assert_eq!(registry, oracle, "round {round}");
            assert_eq!(registry.to_json(), folded(&work).to_json(), "round {round}");
        }
    }

    #[test]
    fn totals_only_meter_keeps_the_total_and_no_items() {
        let charge = |meter: &mut WorkMeter| {
            meter.charge(CoreComputeOp::Read, "outside", SimDuration::from_nanos(7));
            let mut op = meter.scope("op");
            op.charge_bytes(DatacenterTax::Protobuf, "proto_encode", 333, 1.5);
            let mut inner = op.scope("inner");
            inner.charge_ops(DatacenterTax::MemAllocation, "malloc", 3, 51.0);
            assert_eq!(inner.frames(), &["op", "inner"]);
        };
        let (mut full, mut totals) = (WorkMeter::new(), WorkMeter::totals_only());
        charge(&mut full);
        charge(&mut totals);
        assert_eq!(totals.total(), full.total());
        assert_eq!(full.total().as_nanos(), 7 + 500 + 153);
        assert!(totals.items().is_empty());
        assert!(totals.frames().is_empty(), "all scopes popped on drop");
        assert!(totals.take().is_empty());
        assert_eq!(totals.total(), SimDuration::ZERO);
    }

    #[test]
    fn absorb_carries_stacks_and_totals() {
        for totals_only in [false, true] {
            let mut meter = if totals_only {
                WorkMeter::totals_only()
            } else {
                WorkMeter::new()
            };
            // Built apart and absorbed under another frame, as a scan
            // partial is: its items keep the stacks they were charged with.
            let mut partial = WorkMeter::new();
            {
                let mut scan = partial.scope("tablet_scan");
                scan.charge(CoreComputeOp::Read, "scan", SimDuration::from_nanos(11));
            }
            let mut op = meter.scope("op");
            op.charge(CoreComputeOp::Write, "before", SimDuration::from_nanos(5));
            op.absorb(partial);
            drop(op);
            assert_eq!(meter.total(), SimDuration::from_nanos(16), "{totals_only}");
            let stacks: Vec<Vec<&str>> = meter.items().iter().map(|i| i.stack.to_vec()).collect();
            if totals_only {
                assert!(stacks.is_empty());
            } else {
                assert_eq!(stacks, vec![vec!["op"], vec!["tablet_scan"]]);
            }
        }
    }

    #[test]
    fn scopes_tag_charges_with_frame_paths() {
        let mut meter = WorkMeter::new();
        meter.charge(CoreComputeOp::Read, "outside", SimDuration::from_nanos(1));
        {
            let mut op = meter.scope("spanner.commit");
            op.charge(
                CoreComputeOp::Write,
                "apply_write",
                SimDuration::from_nanos(2),
            );
            {
                let mut consensus = op.scope("consensus");
                consensus.charge(
                    DatacenterTax::Rpc,
                    "paxos_propose",
                    SimDuration::from_nanos(3),
                );
            }
            op.charge(
                CoreComputeOp::Write,
                "log_append",
                SimDuration::from_nanos(4),
            );
        }
        let stacks: Vec<Vec<&str>> = meter.items().iter().map(|i| i.stack.to_vec()).collect();
        assert_eq!(
            stacks,
            vec![
                vec![],
                vec!["spanner.commit"],
                vec!["spanner.commit", "consensus"],
                vec!["spanner.commit"],
            ]
        );
        assert!(meter.frames().is_empty(), "all scopes popped on drop");
    }

    #[test]
    fn sibling_scopes_share_parent_path_storage() {
        let mut meter = WorkMeter::new();
        let mut op = meter.scope("op");
        op.charge(CoreComputeOp::Read, "a", SimDuration::from_nanos(1));
        {
            let mut inner = op.scope("stage");
            inner.charge(CoreComputeOp::Read, "b", SimDuration::from_nanos(1));
        }
        op.charge(CoreComputeOp::Read, "c", SimDuration::from_nanos(1));
        drop(op);
        // Charges at the same depth carry the same interned path.
        let items: Vec<CpuWorkItem> = meter.items().iter().collect();
        assert_eq!(items[0].stack, items[2].stack);
        assert!(std::ptr::eq(&*items[0].stack, &*items[2].stack));
        assert_eq!(&*items[1].stack, &["op", "stage"]);
    }

    #[test]
    fn pop_on_empty_stack_is_safe() {
        let mut meter = WorkMeter::new();
        meter.pop_frame();
        meter.charge(CoreComputeOp::Read, "x", SimDuration::from_nanos(1));
        let item = meter.items().iter().next().expect("one charge");
        assert!(item.stack.is_empty());
    }

    #[test]
    fn take_drains() {
        let mut meter = WorkMeter::new();
        meter.charge(CoreComputeOp::Write, "put", SimDuration::from_nanos(10));
        let items = meter.take();
        assert_eq!(items.len(), 1);
        assert!(meter.items().is_empty());
        assert_eq!(meter.total(), SimDuration::ZERO, "take resets the total");
        assert_eq!(items_breakdown(&items).total().as_secs(), 1e-8);
    }

    /// The saving this layout exists for: a stored charge is a site
    /// reference and a duration, and a query's work keeps no spare slots.
    #[test]
    fn entries_are_16_bytes_and_taken_work_has_no_spare_capacity() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
        let mut meter = WorkMeter::new();
        let mut op = meter.scope("op");
        for ns in 1..=5 {
            op.charge(CoreComputeOp::Read, "a", SimDuration::from_nanos(ns));
        }
        drop(op);
        let mut work = meter.take();
        assert_eq!(work.len(), 5);
        assert_eq!(work.entries.capacity(), work.len());
        meter.charge(CoreComputeOp::Write, "b", SimDuration::from_nanos(9));
        work.extend(meter.take());
        assert_eq!(work.len(), 6);
        assert_eq!(work.entries.capacity(), work.len(), "extend stays exact");
    }
}
