//! GWP-style fleet profiling: statistical sampling of labeled CPU work and
//! aggregation by leaf function and category (Section 5.1).
//!
//! The real Google-Wide Profiler interrupts machines across the fleet and
//! attributes each sample to the leaf function of the interrupted call
//! stack. Here, labeled CPU work items (category + leaf + duration) arrive
//! from the simulated platforms; the profiler samples periodically in
//! cumulative CPU time, carrying the residual from one item to the next so
//! each item's samples are proportional to its duration, then aggregates —
//! the same estimator, fed by simulated cycles.

use std::collections::BTreeMap;

use hsdp_core::category::{BroadCategory, CoreComputeOp, CpuCategory, DatacenterTax, SystemTax};
use hsdp_core::stack::{Site, SiteMap};
use hsdp_simcore::time::SimDuration;

use crate::stacks::StackProfile;

/// The profiler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GwpConfig {
    /// Sampling period (simulated CPU time between samples).
    pub sample_period: SimDuration,
}

impl Default for GwpConfig {
    fn default() -> Self {
        GwpConfig {
            sample_period: SimDuration::from_micros(10),
        }
    }
}

/// An aggregated CPU profile: sample counts by (category, leaf).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleProfile {
    samples: BTreeMap<(CpuCategory, &'static str), u64>,
    total: u64,
}

impl CycleProfile {
    /// Rolls the stack profile's cells up by `(category, leaf)`. Cells
    /// without samples add no entry, as no sample named them.
    fn from_stacks(stacks: &StackProfile) -> Self {
        let mut profile = CycleProfile::default();
        for (category, leaf, samples) in stacks.leaf_samples() {
            if samples > 0 {
                *profile.samples.entry((category, leaf)).or_insert(0) += samples;
                profile.total += samples;
            }
        }
        profile
    }

    /// Total samples collected.
    #[must_use]
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Samples attributed to one fine category.
    #[must_use]
    pub fn category_samples(&self, category: CpuCategory) -> u64 {
        self.samples
            .iter()
            .filter(|((c, _), _)| *c == category)
            .map(|(_, n)| n)
            .sum()
    }

    /// The share of cycles in a broad category (Figure 3 rows).
    #[must_use]
    pub fn broad_share(&self, broad: BroadCategory) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n: u64 = self
            .samples
            .iter()
            .filter(|((c, _), _)| c.broad() == broad)
            .map(|(_, n)| n)
            .sum();
        n as f64 / self.total as f64
    }

    /// Share of a fine category within its broad category (the Figures 4–6
    /// normalization).
    #[must_use]
    pub fn share_within_broad(&self, category: CpuCategory) -> f64 {
        let broad_total: u64 = self
            .samples
            .iter()
            .filter(|((c, _), _)| c.broad() == category.broad())
            .map(|(_, n)| n)
            .sum();
        if broad_total == 0 {
            return 0.0;
        }
        self.category_samples(category) as f64 / broad_total as f64
    }

    /// The categories present in Figure 4 order for the given platform,
    /// with their within-broad shares.
    #[must_use]
    pub fn core_compute_rows(
        &self,
        platform: hsdp_core::category::Platform,
    ) -> Vec<(CoreComputeOp, f64)> {
        CoreComputeOp::for_platform(platform)
            .iter()
            .map(|&op| (op, self.share_within_broad(CpuCategory::Core(op))))
            .collect()
    }

    /// Figure 5 rows: datacenter taxes with within-broad shares.
    #[must_use]
    pub fn datacenter_tax_rows(&self) -> Vec<(DatacenterTax, f64)> {
        DatacenterTax::ALL
            .iter()
            .map(|&tax| (tax, self.share_within_broad(CpuCategory::Datacenter(tax))))
            .collect()
    }

    /// Figure 6 rows: system taxes with within-broad shares.
    #[must_use]
    pub fn system_tax_rows(&self) -> Vec<(SystemTax, f64)> {
        SystemTax::ALL
            .iter()
            .map(|&tax| (tax, self.share_within_broad(CpuCategory::System(tax))))
            .collect()
    }
}

/// The sampling profiler.
#[derive(Debug)]
pub struct GwpProfiler {
    config: GwpConfig,
    stacks: StackProfile,
    /// Time carried over until the next sample fires.
    residual: SimDuration,
    /// The stack-profile cell of each site observed, keyed by identity.
    site_cells: SiteMap<usize>,
}

impl GwpProfiler {
    /// A fresh profiler.
    #[must_use]
    pub fn new(config: GwpConfig) -> Self {
        GwpProfiler {
            config,
            stacks: StackProfile::new(),
            residual: SimDuration::ZERO,
            site_cells: SiteMap::default(),
        }
    }

    /// Offers `time` of CPU work charged at `site`: samples fire every
    /// `sample_period` of cumulative CPU time, each attributed to the
    /// site's leaf. The site's full frame path is folded into the stack
    /// profile regardless of whether a sample fires, so the stack tree
    /// carries both exact nanoseconds and sampled counts. The site's
    /// content is looked up in the stack profile once; later charges at the
    /// same site go straight to its cell.
    pub fn observe_site(&mut self, site: &'static Site, time: SimDuration) {
        let period = self.config.sample_period.as_nanos().max(1);
        let budget = self.residual.as_nanos() + time.as_nanos();
        self.residual = SimDuration::from_nanos(budget % period);
        let cell = *self.site_cells.entry(site).or_insert_with(|| {
            self.stacks
                .cell_of(&site.stack(), site.leaf(), site.category())
        });
        self.stacks.add(cell, time, budget / period);
    }

    /// The aggregated profile, rolled up from the stack profile.
    #[must_use]
    pub fn profile(&self) -> CycleProfile {
        CycleProfile::from_stacks(&self.stacks)
    }

    /// Consumes the profiler, returning the profile.
    #[must_use]
    pub fn into_profile(self) -> CycleProfile {
        self.profile()
    }

    /// Consumes the profiler, returning just the stack-tree profile —
    /// the shape the profile-history snapshot builder wants.
    #[must_use]
    pub fn into_stack_profile(self) -> StackProfile {
        self.stacks
    }

    /// The sample period in use.
    #[must_use]
    pub fn sample_period(&self) -> SimDuration {
        self.config.sample_period
    }
}

/// A profiler may be built on one thread and returned from another, as a
/// per-shard fold would; its site map keys must not cost it `Send`/`Sync`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GwpProfiler>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hsdp_core::category::Platform;
    use hsdp_core::stack::empty_path;

    /// Offers `micros` of work at the root-level site `(leaf, category)`.
    fn observe(
        profiler: &mut GwpProfiler,
        category: impl Into<CpuCategory>,
        leaf: &'static str,
        micros: u64,
    ) {
        profiler.observe_site(
            Site::intern(empty_path(), leaf, category.into()),
            SimDuration::from_micros(micros),
        );
    }

    #[test]
    fn samples_proportional_to_time() {
        let mut profiler = GwpProfiler::new(GwpConfig {
            sample_period: SimDuration::from_micros(1),
        });
        observe(&mut profiler, CoreComputeOp::Read, "read_path", 3000);
        observe(&mut profiler, DatacenterTax::Protobuf, "proto_encode", 1000);
        let p = profiler.profile();
        let read = p.category_samples(CpuCategory::Core(CoreComputeOp::Read));
        let proto = p.category_samples(CpuCategory::Datacenter(DatacenterTax::Protobuf));
        assert!(read > 2900 && read < 3100, "{read}");
        assert!(proto > 900 && proto < 1100, "{proto}");
    }

    #[test]
    fn sub_period_work_accumulates_via_residual() {
        let mut profiler = GwpProfiler::new(GwpConfig {
            sample_period: SimDuration::from_micros(10),
        });
        // 100 items of 1us each = 100us total = ~10 samples.
        for _ in 0..100 {
            observe(&mut profiler, SystemTax::Stl, "vector_push", 1);
        }
        let total = profiler.profile().total_samples();
        assert_eq!(total, 10, "residual carries across items");
    }

    #[test]
    fn broad_and_within_shares() {
        let mut profiler = GwpProfiler::new(GwpConfig {
            sample_period: SimDuration::from_micros(1),
        });
        observe(&mut profiler, CoreComputeOp::Read, "a", 500);
        observe(&mut profiler, CoreComputeOp::Write, "b", 500);
        observe(&mut profiler, DatacenterTax::Rpc, "c", 1000);
        let p = profiler.profile();
        assert!((p.broad_share(BroadCategory::CoreCompute) - 0.5).abs() < 0.02);
        assert!((p.broad_share(BroadCategory::DatacenterTax) - 0.5).abs() < 0.02);
        assert!((p.share_within_broad(CpuCategory::Core(CoreComputeOp::Read)) - 0.5).abs() < 0.05);
        assert!(
            (p.share_within_broad(CpuCategory::Datacenter(DatacenterTax::Rpc)) - 1.0).abs() < 1e-9
        );
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = CycleProfile::default();
        assert_eq!(p.broad_share(BroadCategory::SystemTax), 0.0);
        assert!(p
            .core_compute_rows(Platform::BigQuery)
            .iter()
            .all(|(_, s)| *s == 0.0));
    }
}
