//! The sea-of-accelerators limit studies (Section 6).
//!
//! Each function here regenerates the data behind one of the paper's
//! evaluation figures:
//!
//! - [`speedup_sweep`] — Figure 9: lockstep per-accelerator speedup sweep,
//!   with and without non-CPU dependencies.
//! - [`grouped_sweep`] — Figure 10: the same sweep split by query group.
//! - [`feature_study`] — Figure 13: sync/async/chained × on/off-chip as
//!   accelerators are added incrementally.
//! - [`setup_sweep`] — Figure 14: sensitivity to accelerator setup time.
//! - [`prior_accelerator_study`] — Figure 15: published accelerators,
//!   individually and combined.

use crate::accel::{AcceleratorSpec, Placement, Speedup};
use crate::category::{CpuCategory, Platform};
use crate::paper;
use crate::plan::{AccelerationPlan, InvocationModel};
use crate::profile::{QueryGroup, QueryPopulation};
use crate::units::{Bytes, Seconds};

/// A named accelerator-system configuration (the four lines of Figure 13).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Display name (e.g. `"Sync + Off-Chip"`).
    pub name: &'static str,
    /// Invocation model.
    pub invocation: InvocationModel,
    /// Placement shared by all accelerators in the configuration.
    pub placement: Placement,
}

impl AcceleratorConfig {
    /// The four configurations of Figure 13, in presentation order:
    /// Sync+Off-Chip, Sync+On-Chip, Async+On-Chip, Chained+On-Chip.
    #[must_use]
    pub fn figure13_set() -> [AcceleratorConfig; 4] {
        [
            AcceleratorConfig {
                name: "Sync + Off-Chip",
                invocation: InvocationModel::Synchronous,
                placement: Placement::off_chip_pcie_gen5(),
            },
            AcceleratorConfig {
                name: "Sync + On-Chip",
                invocation: InvocationModel::Synchronous,
                placement: Placement::OnChip,
            },
            AcceleratorConfig {
                name: "Async + On-Chip",
                invocation: InvocationModel::Asynchronous,
                placement: Placement::OnChip,
            },
            AcceleratorConfig {
                name: "Chained + On-Chip",
                invocation: InvocationModel::Chained,
                placement: Placement::OnChip,
            },
        ]
    }
}

/// Builds a plan assigning the same accelerator (speedup, setup, payload,
/// placement) to every category, under the configuration's invocation model
/// — the uniform-accelerator configuration swept in Figures 9 and 10.
#[must_use]
pub fn build_plan(
    categories: &[CpuCategory],
    speedup: Speedup,
    setup: Seconds,
    payload: Bytes,
    config: AcceleratorConfig,
) -> AccelerationPlan {
    let mut plan = AccelerationPlan::new(config.invocation);
    for &category in categories {
        let spec = AcceleratorSpec::ideal(speedup)
            .with_setup(setup)
            .with_payload(payload)
            .with_placement(config.placement);
        plan.assign(category, spec);
    }
    plan
}

/// One point of a Figure 9-style sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Per-accelerator speedup `s_sub` at this point.
    pub accel_speedup: f64,
    /// Aggregate end-to-end speedup with non-CPU dependencies retained.
    pub with_deps: f64,
    /// Aggregate co-design speedup with dependencies removed.
    pub without_deps: f64,
    /// Peak per-query co-design speedup (the published Figure 9 peaks).
    pub peak_without_deps: f64,
}

/// Figure 9: sweeps the lockstep per-accelerator speedup over `speedups`
/// (the paper uses 1x–64x), evaluating synchronous on-chip acceleration of
/// the Section 6.2 component set with and without non-CPU dependencies.
#[must_use]
pub fn speedup_sweep(
    population: &QueryPopulation,
    categories: &[CpuCategory],
    speedups: &[f64],
) -> Vec<SweepPoint> {
    let points: Vec<SweepPoint> = speedups
        .iter()
        .map(|&s| {
            let plan = build_plan(
                categories,
                // audit: allow(panic, the max(1.0) clamp guarantees a valid speedup)
                Speedup::new(s.max(1.0)).expect("sweep speedups are >= 1"),
                Seconds::ZERO,
                Bytes::ZERO,
                AcceleratorConfig {
                    name: "Sync + On-Chip",
                    invocation: InvocationModel::Synchronous,
                    placement: Placement::OnChip,
                },
            );
            SweepPoint {
                accel_speedup: s,
                with_deps: population.aggregate_speedup(&plan),
                without_deps: population.aggregate_codesign_speedup(&plan),
                peak_without_deps: population.peak_codesign_speedup(&plan),
            }
        })
        .collect();
    debug_assert!(
        {
            let with: Vec<(f64, f64)> = points
                .iter()
                .map(|p| (p.accel_speedup, p.with_deps))
                .collect();
            let without: Vec<(f64, f64)> = points
                .iter()
                .map(|p| (p.accel_speedup, p.without_deps))
                .collect();
            crate::audit::check_speedup_curve("Figure 9 with dependencies", &with).is_empty()
                && crate::audit::check_speedup_curve("Figure 9 co-design", &without).is_empty()
        },
        "Figure 9 sweep violated the Eq. 9 speedup bound or monotonicity"
    );
    points
}

/// The default sweep grid of Figures 9–10 (1x to 64x).
#[must_use]
pub fn default_speedup_grid() -> Vec<f64> {
    vec![1.0, 2.0, 4.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0, 64.0]
}

/// One series of the Figure 10 chart: a query group's co-design speedups
/// across the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSweep {
    /// The query group.
    pub group: QueryGroup,
    /// `(accel_speedup, aggregate co-design speedup)` pairs.
    pub points: Vec<(f64, f64)>,
}

/// Figure 10: the Figure 9 sweep split per query group, with remote work and
/// IO removed. Unpopulated groups are omitted.
#[must_use]
pub fn grouped_sweep(
    population: &QueryPopulation,
    categories: &[CpuCategory],
    speedups: &[f64],
) -> Vec<GroupSweep> {
    QueryGroup::ALL
        .iter()
        .filter_map(|&group| {
            let sub = population.group_population(group)?;
            let points = speedups
                .iter()
                .map(|&s| {
                    let plan = build_plan(
                        categories,
                        // audit: allow(panic, the max(1.0) clamp guarantees a valid speedup)
                        Speedup::new(s.max(1.0)).expect("sweep speedups are >= 1"),
                        Seconds::ZERO,
                        Bytes::ZERO,
                        AcceleratorConfig {
                            name: "Sync + On-Chip",
                            invocation: InvocationModel::Synchronous,
                            placement: Placement::OnChip,
                        },
                    );
                    (s, sub.aggregate_codesign_speedup(&plan))
                })
                .collect();
            Some(GroupSweep { group, points })
        })
        .collect()
}

/// One step of the Figure 13 incremental study: the speedup of each
/// configuration once accelerators up to and including `added` are active.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureStep {
    /// The accelerator added at this step.
    pub added: CpuCategory,
    /// `(configuration name, aggregate end-to-end speedup)` in
    /// [`AcceleratorConfig::figure13_set`] order.
    pub speedups: Vec<(&'static str, f64)>,
}

/// Per-accelerator speedup used by the Figure 13/14 studies. The paper's
/// setup-time study (Section 6.3.3) fixes 8x per accelerator.
pub const FEATURE_STUDY_SPEEDUP: f64 = 8.0;

/// Figure 13: incrementally adds the platform's accelerators (datacenter
/// taxes, then system taxes, then core compute) and evaluates all four
/// configurations with dependencies retained. Off-chip configurations pay
/// `2 * B_i / BW` per component with `B_i` the platform's average query
/// payload and a PCIe Gen5 (4 GB/s) link.
#[must_use]
pub fn feature_study(platform: Platform, population: &QueryPopulation) -> Vec<FeatureStep> {
    let order = paper::incremental_accelerator_order(platform);
    let payload = paper::average_query_payload(platform);
    // audit: allow(panic, FEATURE_STUDY_SPEEDUP is a compile-time constant >= 1)
    let speedup = Speedup::new(FEATURE_STUDY_SPEEDUP).expect("constant is >= 1");
    let configs = AcceleratorConfig::figure13_set();

    let steps: Vec<FeatureStep> = (1..=order.len())
        .map(|n| {
            let active = &order[..n];
            let speedups = configs
                .iter()
                .map(|&config| {
                    let plan = build_plan(active, speedup, Seconds::ZERO, payload, config);
                    (config.name, population.aggregate_speedup(&plan))
                })
                .collect();
            FeatureStep {
                added: order[n - 1],
                speedups,
            }
        })
        .collect();
    // Off-chip configurations pay a payload round-trip and may legitimately
    // dip below 1x, but the zero-setup on-chip series must be monotone in
    // the offloaded fraction (Eq. 9).
    debug_assert!(
        {
            let on_chip: Vec<(f64, f64)> = steps
                .iter()
                .enumerate()
                .filter_map(|(i, step)| {
                    step.speedups
                        .iter()
                        .find(|(name, _)| *name == "Sync + On-Chip")
                        .map(|&(_, s)| (i as f64, s))
                })
                .collect();
            crate::audit::check_speedup_curve("Figure 13 Sync + On-Chip", &on_chip).is_empty()
        },
        "Figure 13 on-chip series violated Eq. 9 monotonicity in the offload fraction"
    );
    steps
}

/// One point of the Figure 14 setup-time sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupPoint {
    /// The per-accelerator setup time at this point.
    pub setup: Seconds,
    /// `(configuration name, aggregate end-to-end speedup)`.
    pub speedups: Vec<(&'static str, f64)>,
}

/// The setup-time grid of Figure 14 (100 ns to 100 ms).
#[must_use]
pub fn default_setup_grid() -> Vec<Seconds> {
    [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
        .into_iter()
        .map(Seconds::new)
        .collect()
}

/// Figure 14: sweeps the accelerator setup time with the full Section 6.2
/// component set active at 8x per accelerator, for all four configurations.
#[must_use]
pub fn setup_sweep(
    platform: Platform,
    population: &QueryPopulation,
    setups: &[Seconds],
) -> Vec<SetupPoint> {
    let categories = paper::accelerated_categories(platform);
    let payload = paper::average_query_payload(platform);
    // audit: allow(panic, FEATURE_STUDY_SPEEDUP is a compile-time constant >= 1)
    let speedup = Speedup::new(FEATURE_STUDY_SPEEDUP).expect("constant is >= 1");
    let configs = AcceleratorConfig::figure13_set();

    setups
        .iter()
        .map(|&setup| {
            let speedups = configs
                .iter()
                .map(|&config| {
                    let plan = build_plan(&categories, speedup, setup, payload, config);
                    (config.name, population.aggregate_speedup(&plan))
                })
                .collect();
            SetupPoint { setup, speedups }
        })
        .collect()
}

/// One bar group of Figure 15: a prior accelerator evaluated alone (or the
/// full roster combined), under synchronous and chained on-chip execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PriorAcceleratorPoint {
    /// Accelerator name, or `"Combined"` for the full roster.
    pub name: &'static str,
    /// Aggregate speedup under Sync + On-Chip.
    pub sync_speedup: f64,
    /// Aggregate speedup under Chained + On-Chip.
    pub chained_speedup: f64,
}

/// Figure 15: evaluates each published accelerator individually and then all
/// of them together. Setup times are zeroed, matching the paper ("the metric
/// was not universally reported").
#[must_use]
pub fn prior_accelerator_study(
    platform: Platform,
    population: &QueryPopulation,
) -> Vec<PriorAcceleratorPoint> {
    let roster = paper::prior_accelerators(platform);

    let eval = |accs: &[&paper::PriorAccelerator], name: &'static str| {
        let mut sync_plan = AccelerationPlan::new(InvocationModel::Synchronous);
        for acc in accs {
            let spec = AcceleratorSpec::ideal(
                // audit: allow(panic, the max(1.0) clamp guarantees a valid speedup)
                Speedup::new(acc.speedup.max(1.0)).expect("published speedups are >= 1"),
            );
            for &target in &acc.targets {
                sync_plan.assign(target, spec);
            }
        }
        let chained_plan = sync_plan.with_invocation(InvocationModel::Chained);
        PriorAcceleratorPoint {
            name,
            sync_speedup: population.aggregate_speedup(&sync_plan),
            chained_speedup: population.aggregate_speedup(&chained_plan),
        }
    };

    let mut points: Vec<PriorAcceleratorPoint> =
        roster.iter().map(|acc| eval(&[acc], acc.name)).collect();
    let all: Vec<&paper::PriorAccelerator> = roster.iter().collect();
    points.push(eval(&all, "Combined"));
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{accelerated_categories, query_population};

    #[test]
    fn sweep_is_monotone_in_accel_speedup() {
        for p in Platform::ALL {
            let pop = query_population(p);
            let cats = accelerated_categories(p);
            let points = speedup_sweep(&pop, &cats, &default_speedup_grid());
            for w in points.windows(2) {
                assert!(w[1].with_deps >= w[0].with_deps - 1e-9);
                assert!(w[1].without_deps >= w[0].without_deps - 1e-9);
                assert!(w[1].peak_without_deps >= w[0].peak_without_deps - 1e-9);
            }
            // At 1x there is still a gain without deps (they were removed).
            assert!(points[0].without_deps >= 1.0);
            assert!((points[0].with_deps - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn sweep_without_deps_dominates_with_deps() {
        let pop = query_population(Platform::BigQuery);
        let cats = accelerated_categories(Platform::BigQuery);
        for pt in speedup_sweep(&pop, &cats, &default_speedup_grid()) {
            assert!(pt.without_deps >= pt.with_deps - 1e-9);
            assert!(pt.peak_without_deps >= pt.without_deps - 1e-9);
        }
    }

    #[test]
    fn grouped_sweep_covers_populated_groups() {
        let pop = query_population(Platform::Spanner);
        let cats = accelerated_categories(Platform::Spanner);
        let groups = grouped_sweep(&pop, &cats, &[1.0, 64.0]);
        assert_eq!(groups.len(), 4, "all four groups populated for Spanner");
        // IO/remote heavy groups see large initial (1x) co-design gains.
        for gs in &groups {
            let initial = gs.points[0].1;
            match gs.group {
                QueryGroup::IoHeavy | QueryGroup::RemoteWorkHeavy => {
                    assert!(initial > 2.0, "{:?} initial {initial}", gs.group)
                }
                QueryGroup::CpuHeavy => assert!(initial < 2.0),
                QueryGroup::Others => {}
            }
        }
    }

    #[test]
    fn feature_study_shapes() {
        for p in Platform::ALL {
            let pop = query_population(p);
            let steps = feature_study(p, &pop);
            assert_eq!(steps.len(), paper::incremental_accelerator_order(p).len());
            let last = steps.last().unwrap();
            let get = |name: &str| {
                last.speedups
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| *s)
                    .unwrap()
            };
            let sync_off = get("Sync + Off-Chip");
            let sync_on = get("Sync + On-Chip");
            let async_on = get("Async + On-Chip");
            let chained_on = get("Chained + On-Chip");
            // On-chip >= off-chip; async >= sync; chained ~ async (no setup).
            assert!(sync_on >= sync_off - 1e-9, "{p}");
            assert!(async_on >= sync_on - 1e-9, "{p}");
            assert!((chained_on - async_on).abs() / async_on < 0.01, "{p}");
            if p == Platform::BigQuery {
                // Large payloads make off-chip a big slowdown (Section 6.3.2).
                assert!(sync_off < 0.3, "BigQuery off-chip {sync_off}");
                assert!(sync_on > 1.0);
            } else {
                // Databases: small payloads; on-chip uplift is modest (~1.04x).
                let uplift = sync_on / sync_off;
                assert!(uplift > 1.0 && uplift < 1.25, "{p} uplift {uplift}");
            }
        }
    }

    #[test]
    fn feature_study_monotone_in_accelerator_count() {
        let pop = query_population(Platform::Spanner);
        let steps = feature_study(Platform::Spanner, &pop);
        for pair in steps.windows(2) {
            let prev = pair[0]
                .speedups
                .iter()
                .find(|(n, _)| *n == "Sync + On-Chip")
                .unwrap()
                .1;
            let next = pair[1]
                .speedups
                .iter()
                .find(|(n, _)| *n == "Sync + On-Chip")
                .unwrap()
                .1;
            assert!(next >= prev - 1e-9);
        }
    }

    #[test]
    fn setup_sweep_degrades_sync_first() {
        let pop = query_population(Platform::Spanner);
        let points = setup_sweep(Platform::Spanner, &pop, &default_setup_grid());
        let first = &points[0];
        let last = points.last().unwrap();
        let get =
            |pt: &SetupPoint, name: &str| pt.speedups.iter().find(|(n, _)| *n == name).unwrap().1;
        // Tiny setup: sync on-chip speedup is healthy.
        assert!(get(first, "Sync + On-Chip") > 1.5);
        // Huge (100 ms) setup on 10 ms queries: sync collapses below 1x.
        assert!(get(last, "Sync + On-Chip") < 0.1);
        // Async/chained parallelize or amortize setup: strictly better.
        assert!(get(last, "Async + On-Chip") > get(last, "Sync + On-Chip"));
        assert!(get(last, "Chained + On-Chip") > get(last, "Sync + On-Chip"));
    }

    #[test]
    fn prior_accelerators_holistic_range() {
        // Paper: holistic synchronous acceleration yields 1.5x–1.7x, and
        // chaining adds little because Mallacc bottlenecks the pipeline.
        for p in Platform::ALL {
            let pop = query_population(p);
            let points = prior_accelerator_study(p, &pop);
            assert_eq!(points.len(), 6);
            let combined = points.last().unwrap();
            assert_eq!(combined.name, "Combined");
            // The databases sit in the paper's 1.5x–1.7x band; BigQuery's
            // dep-dominated population bounds it lower (see EXPERIMENTS.md).
            let lo = if p == Platform::BigQuery { 1.08 } else { 1.3 };
            assert!(
                combined.sync_speedup > lo && combined.sync_speedup < 2.0,
                "{p} combined sync {}",
                combined.sync_speedup
            );
            // Individual accelerators each achieve less than the combination.
            for pt in &points[..5] {
                assert!(pt.sync_speedup <= combined.sync_speedup + 1e-9);
            }
        }
    }
}
