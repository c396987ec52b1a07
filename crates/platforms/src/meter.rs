//! CPU work metering: how the simulated platforms charge labeled CPU time.
//!
//! Platforms execute *real* code (protobuf encoding, compression, LSM
//! merges, hash joins) but run under a simulated clock. The [`WorkMeter`]
//! bridges the two: every unit of work is charged simulated time from the
//! calibrated cost model ([`crate::costs`]) and labeled with the fine
//! [`CpuCategory`] and a leaf-function name, exactly the shape GWP samples
//! arrive in (Section 5.1).

use hsdp_core::category::CpuCategory;
use hsdp_core::component::CpuBreakdown;
use hsdp_core::stack::{empty_path, FramePath};
use hsdp_core::units::Seconds;
use hsdp_simcore::time::SimDuration;
use hsdp_telemetry::{category_key, MetricsRegistry};

/// One labeled unit of CPU work.
#[derive(Debug, Clone, PartialEq)]
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

/// Accumulates labeled CPU work during query execution.
///
/// Besides the flat item list, the meter maintains a *frame stack*: scopes
/// pushed via [`WorkMeter::scope`] (or [`WorkMeter::push_frame`]) tag every
/// subsequent charge with the enclosing frame path, so each
/// [`CpuWorkItem`] carries the full stack a GWP interrupt would see. Each
/// push snapshots the path into an `Arc` once; charges then clone the
/// `Arc`, keeping the per-charge cost constant regardless of depth.
///
/// A totals-only meter (`WorkMeter::totals_only`) keeps the running total
/// and the frame names but no items and no path snapshots: the meter for
/// work whose records no artifact reads, such as warmup.
#[derive(Debug, Default)]
pub struct WorkMeter {
    items: Vec<CpuWorkItem>,
    total: SimDuration,
    totals_only: bool,
    frames: Vec<&'static str>,
    /// `paths[d]` is the shared snapshot of `frames[..=d]`, so popping is a
    /// truncation and the current path is always `paths.last()`. Empty on a
    /// totals-only meter.
    paths: Vec<FramePath>,
}

impl WorkMeter {
    /// An empty meter that keeps every item.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty meter that keeps only the total charged.
    #[must_use]
    pub(crate) fn totals_only() -> Self {
        WorkMeter {
            totals_only: true,
            ..Self::default()
        }
    }

    /// Folds in another meter, such as a scan partial's: adds its total
    /// and appends its items as charged, stacks included.
    pub(crate) fn absorb(&mut self, other: WorkMeter) {
        self.total += other.total;
        if !self.totals_only {
            self.items.extend(other.items);
        }
    }

    /// The call-frame path charges are currently attributed to (empty on
    /// a totals-only meter).
    #[must_use]
    pub fn current_path(&self) -> FramePath {
        self.paths.last().cloned().unwrap_or_else(empty_path)
    }

    /// The current frame stack, outermost first.
    #[must_use]
    pub fn frames(&self) -> &[&'static str] {
        &self.frames
    }

    /// Pushes a call frame; prefer the RAII [`WorkMeter::scope`] guard.
    pub fn push_frame(&mut self, name: &'static str) {
        self.frames.push(name);
        if !self.totals_only {
            self.paths.push(FramePath::from(self.frames.as_slice()));
        }
    }

    /// Pops the innermost call frame (no-op when the stack is empty).
    pub fn pop_frame(&mut self) {
        self.frames.pop();
        self.paths.pop();
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
    /// assert_eq!(&*meter.items()[0].stack, &["consensus"]);
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
        self.items.push(CpuWorkItem {
            category: category.into(),
            leaf,
            stack: self.current_path(),
            time,
        });
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

    /// The items charged so far (none on a totals-only meter).
    #[must_use]
    pub fn items(&self) -> &[CpuWorkItem] {
        &self.items
    }

    /// Drains the items and resets the total, leaving the meter empty.
    pub fn take(&mut self) -> Vec<CpuWorkItem> {
        self.total = SimDuration::ZERO;
        std::mem::take(&mut self.items)
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

/// Charged CPU summed per `(category, leaf)` until it is added to a
/// registry's `("cpu", category, leaf)` nanosecond counters, so the
/// registry's `"cpu"` subsystem sum equals the meter totals *exactly* — the
/// invariant the telemetry unit tests pin. A platform sees a few dozen
/// keys, so the sums live in a short list searched linearly; leaves compare
/// as strings, as the registry's keys do.
#[derive(Debug, Default)]
pub(crate) struct CpuCounters {
    sums: Vec<(CpuCategory, &'static str, u64)>,
}

impl CpuCounters {
    /// Adds each item's time to its key's sum, if `registry` records.
    pub(crate) fn add(&mut self, registry: &MetricsRegistry, items: &[CpuWorkItem]) {
        if !registry.is_enabled() {
            return;
        }
        for item in items {
            let ns = item.time.as_nanos();
            match self
                .sums
                .iter_mut()
                .find(|(category, leaf, _)| *category == item.category && *leaf == item.leaf)
            {
                Some((_, _, sum)) => *sum += ns,
                None => self.sums.push((item.category, item.leaf, ns)),
            }
        }
    }

    /// Adds every sum to `registry` (once per key) and clears the sums.
    pub(crate) fn drain_into(&mut self, registry: &mut MetricsRegistry) {
        for (category, leaf, ns) in self.sums.drain(..) {
            registry.counter_add(("cpu", category_key(category), leaf), ns);
        }
    }
}

/// Converts a list of work items into a breakdown (for drained items).
#[must_use]
pub fn items_breakdown(items: &[CpuWorkItem]) -> CpuBreakdown {
    items
        .iter()
        .map(|i| (i.category, Seconds::new(i.time.as_secs_f64())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::{CoreComputeOp, DatacenterTax};

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
    /// one registry update per item.
    fn record_cpu_items(registry: &mut MetricsRegistry, items: &[CpuWorkItem]) {
        for item in items {
            registry.counter_add(
                ("cpu", category_key(item.category), item.leaf),
                item.time.as_nanos(),
            );
        }
    }

    /// Folds `items` through [`CpuCounters`] into a fresh registry.
    fn folded(items: &[CpuWorkItem]) -> MetricsRegistry {
        let mut counters = CpuCounters::default();
        let mut registry = MetricsRegistry::new();
        counters.add(&registry, items);
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
            let mut oracle = MetricsRegistry::new();
            record_cpu_items(&mut oracle, &items);
            // Folding in two batches equals folding once.
            let mut counters = CpuCounters::default();
            let mut registry = MetricsRegistry::new();
            let (head, tail) = items.split_at(len / 3);
            counters.add(&registry, head);
            counters.add(&registry, tail);
            // One sum per registry key: the twin leaf folds with its text.
            assert_eq!(
                counters.sums.len(),
                oracle.counters().len(),
                "round {round}"
            );
            counters.drain_into(&mut registry);
            assert_eq!(registry, oracle, "round {round}");
            assert_eq!(
                registry.to_json(),
                folded(&items).to_json(),
                "round {round}"
            );
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
        // Charges at the same depth reuse the same Arc snapshot.
        let items = meter.items();
        assert!(std::sync::Arc::ptr_eq(&items[0].stack, &items[2].stack));
        assert_eq!(&*items[1].stack, &["op", "stage"]);
    }

    #[test]
    fn pop_on_empty_stack_is_safe() {
        let mut meter = WorkMeter::new();
        meter.pop_frame();
        meter.charge(CoreComputeOp::Read, "x", SimDuration::from_nanos(1));
        assert!(meter.items()[0].stack.is_empty());
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
}
