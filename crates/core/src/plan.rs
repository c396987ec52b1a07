//! Acceleration plans: which components get which accelerators, and how the
//! accelerated CPU time composes (Equations 2–9).
//!
//! An [`AccelerationPlan`] maps fine-grained [`CpuCategory`] components to
//! [`AcceleratorSpec`]s under an [`InvocationModel`]:
//!
//! - **Synchronous** — every accelerator invocation serializes with the core
//!   (`g_sub_i = 1`), so `t_acc = Σ t'_sub_i`.
//! - **Asynchronous** — all invocations overlap (`g_sub_i = 0`), so
//!   `t_acc = max(t'_sub_i)` (Eq. 6).
//! - **PerComponent** — each spec's own `g_sub_i` is honored (Eq. 5).
//! - **Chained** — all assigned accelerators form a pipeline (Eqs. 9–12).

use std::collections::BTreeMap;

use crate::accel::{AcceleratorSpec, OverlapFactor, Placement, Speedup};
use crate::category::CpuCategory;
use crate::chained::{chain_estimate, ChainStage};
use crate::component::CpuBreakdown;
use crate::error::ModelError;
use crate::model::{accelerated_end_to_end_time, speedup_ratio, QueryPhases};
use crate::units::{Bytes, Seconds};

/// How accelerator invocations relate to one another (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InvocationModel {
    /// Strict serial dependency between the core and every accelerator.
    #[default]
    Synchronous,
    /// Ideal case: all accelerator invocations execute in parallel.
    Asynchronous,
    /// Honor each component's own overlap factor `g_sub_i`.
    PerComponent,
    /// Accelerators stream to one another without core coordination.
    Chained,
}

impl std::fmt::Display for InvocationModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            InvocationModel::Synchronous => "Sync",
            InvocationModel::Asynchronous => "Async",
            InvocationModel::PerComponent => "PerComponent",
            InvocationModel::Chained => "Chained",
        };
        f.write_str(name)
    }
}

/// Per-component outcome of a plan evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentEstimate {
    /// The component.
    pub category: CpuCategory,
    /// Original time `t_sub_i`.
    pub original: Seconds,
    /// Accelerated time `t'_sub_i` (with penalty; Eq. 7).
    pub accelerated: Seconds,
    /// The invocation penalty `t_pen_i` (Eq. 8).
    pub penalty: Seconds,
}

/// The accelerated CPU time and its decomposition (Equations 3–12).
#[derive(Debug, Clone, PartialEq)]
pub struct CpuEstimate {
    /// `t_acc` — combined accelerated-component time (Eq. 5), or `t_chnd`
    /// for a chained plan (Eq. 10).
    pub accelerated: Seconds,
    /// `t_nacc` — total time of components left on the CPU (Eq. 4), plus any
    /// CPU time the breakdown did not cover.
    pub unaccelerated: Seconds,
    /// `t'_cpu = t_acc + t_nacc` (Eq. 3 / Eq. 9).
    pub total: Seconds,
    /// Per-accelerated-component detail.
    pub components: Vec<ComponentEstimate>,
}

/// Full end-to-end outcome of applying a plan to one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOutcome {
    /// Original end-to-end time (Eq. 1).
    pub original_e2e: Seconds,
    /// Accelerated end-to-end time (Eq. 2).
    pub accelerated_e2e: Seconds,
    /// `original_e2e / accelerated_e2e`.
    pub speedup: f64,
    /// The accelerated-CPU decomposition behind Eq. 2.
    pub cpu: CpuEstimate,
}

/// A sea-of-accelerators configuration: component → accelerator assignments
/// plus the invocation model.
///
/// # Examples
///
/// ```
/// use hsdp_core::accel::{OverlapFactor, Speedup};
/// use hsdp_core::category::{CpuCategory, DatacenterTax};
/// use hsdp_core::component::CpuBreakdown;
/// use hsdp_core::model::QueryPhases;
/// use hsdp_core::plan::{AccelerationPlan, InvocationModel};
/// use hsdp_core::units::Seconds;
///
/// let compression = CpuCategory::from(DatacenterTax::Compression);
/// let rpc = CpuCategory::from(DatacenterTax::Rpc);
/// let plan = AccelerationPlan::uniform(
///     [compression, rpc],
///     Speedup::new(8.0)?,
///     InvocationModel::Synchronous,
/// )?;
/// let breakdown = CpuBreakdown::from_shares(
///     Seconds::new(1.0),
///     &[(compression, 0.5), (rpc, 0.5)],
/// )?;
/// // A CPU-bound query: no dependency time (`t_dep = 0` in Equation 1).
/// let phases = QueryPhases::new(Seconds::new(1.0), Seconds::ZERO, OverlapFactor::SYNCHRONOUS);
/// let outcome = plan.evaluate(&phases, &breakdown);
/// assert!(outcome.speedup > 7.9);
/// # Ok::<(), hsdp_core::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AccelerationPlan {
    assignments: BTreeMap<CpuCategory, AcceleratorSpec>,
    invocation: InvocationModel,
}

impl AccelerationPlan {
    /// An empty plan (no accelerators): evaluation reproduces the baseline.
    #[must_use]
    pub fn new(invocation: InvocationModel) -> Self {
        AccelerationPlan {
            assignments: BTreeMap::new(),
            invocation,
        }
    }

    /// A plan assigning the *same* ideal on-chip accelerator (given speedup,
    /// zero penalties) to every listed component — the lockstep assumption of
    /// the paper's Section 6.2 limit study.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateComponent`] if a category repeats.
    // audit: allow(reach, the quickstart doctests in src/lib.rs, the hsdp_core root and this module build their plans with it; doctests are not scanned)
    pub fn uniform<I>(
        categories: I,
        speedup: Speedup,
        invocation: InvocationModel,
    ) -> Result<Self, ModelError>
    where
        I: IntoIterator<Item = CpuCategory>,
    {
        let mut plan = AccelerationPlan::new(invocation);
        for category in categories {
            plan.try_assign(category, AcceleratorSpec::ideal(speedup))?;
        }
        Ok(plan)
    }

    /// Assigns an accelerator to a component, replacing any previous
    /// assignment.
    pub fn assign(&mut self, category: CpuCategory, spec: AcceleratorSpec) {
        self.assignments.insert(category, spec);
    }

    /// Assigns an accelerator to a component, failing on duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateComponent`] if the category is already
    /// assigned.
    pub fn try_assign(
        &mut self,
        category: CpuCategory,
        spec: AcceleratorSpec,
    ) -> Result<(), ModelError> {
        if self.assignments.contains_key(&category) {
            return Err(ModelError::DuplicateComponent {
                category: category.to_string(),
            });
        }
        self.assignments.insert(category, spec);
        Ok(())
    }

    /// Number of assigned accelerators (the paper's `U`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True if no accelerators are assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The invocation model.
    #[must_use]
    pub fn invocation(&self) -> InvocationModel {
        self.invocation
    }

    /// Returns a copy with a different invocation model — handy for the
    /// Figure 13 comparison, which evaluates the same assignments under
    /// sync/async/chained execution.
    #[must_use]
    pub fn with_invocation(&self, invocation: InvocationModel) -> AccelerationPlan {
        AccelerationPlan {
            assignments: self.assignments.clone(),
            invocation,
        }
    }

    /// Returns a copy with every assignment's placement replaced.
    #[must_use]
    pub fn with_placement(&self, placement: Placement) -> AccelerationPlan {
        AccelerationPlan {
            assignments: self
                .assignments
                .iter()
                .map(|(c, s)| (*c, s.with_placement(placement)))
                .collect(),
            invocation: self.invocation,
        }
    }

    /// Returns a copy with every assignment's setup time replaced (the
    /// Figure 14 setup-time sweep).
    #[must_use]
    pub fn with_setup(&self, setup: Seconds) -> AccelerationPlan {
        AccelerationPlan {
            assignments: self
                .assignments
                .iter()
                .map(|(c, s)| (*c, s.with_setup(setup)))
                .collect(),
            invocation: self.invocation,
        }
    }

    /// Returns a copy with every assignment's offload payload replaced (used
    /// with off-chip placement in Figure 13).
    #[must_use]
    pub fn with_payload(&self, payload: Bytes) -> AccelerationPlan {
        AccelerationPlan {
            assignments: self
                .assignments
                .iter()
                .map(|(c, s)| (*c, s.with_payload(payload)))
                .collect(),
            invocation: self.invocation,
        }
    }

    /// Iterates over `(category, spec)` assignments in category order.
    pub fn iter(&self) -> impl Iterator<Item = (CpuCategory, &AcceleratorSpec)> + '_ {
        self.assignments.iter().map(|(c, s)| (*c, s))
    }

    /// The effective overlap factor for a component under this plan's
    /// invocation model.
    fn effective_overlap(&self, spec: &AcceleratorSpec) -> f64 {
        match self.invocation {
            InvocationModel::Synchronous => OverlapFactor::SYNCHRONOUS.value(),
            InvocationModel::Asynchronous => OverlapFactor::ASYNCHRONOUS.value(),
            InvocationModel::PerComponent | InvocationModel::Chained => spec.overlap().value(),
        }
    }

    /// The accelerated CPU time `t'_cpu` for a query whose CPU time divides
    /// per `breakdown` (Equations 3–9).
    ///
    /// CPU time present in `total_cpu` but not covered by the breakdown is
    /// treated as unaccelerated (it joins `t_nacc`). If the breakdown's total
    /// exceeds `total_cpu`, the breakdown is authoritative.
    #[must_use]
    pub fn accelerated_cpu(&self, total_cpu: Seconds, breakdown: &CpuBreakdown) -> CpuEstimate {
        let covered = breakdown.total();
        let uncovered = total_cpu - covered; // saturating

        let mut unaccelerated = uncovered;
        let mut components = Vec::new();
        let mut chain_stages = Vec::new();
        let mut weighted_sum = Seconds::ZERO; // Σ g_sub_i * t'_sub_i
        let mut largest = Seconds::ZERO; // t_lsub (Eq. 6)

        for (category, original) in breakdown.iter() {
            match self.assignments.get(&category) {
                None => unaccelerated += original,
                Some(spec) => {
                    let accelerated = spec.accelerated_time(original);
                    components.push(ComponentEstimate {
                        category,
                        original,
                        accelerated,
                        penalty: spec.penalty(),
                    });
                    if self.invocation == InvocationModel::Chained {
                        chain_stages.push(ChainStage {
                            category,
                            original,
                            spec: *spec,
                        });
                    } else {
                        let g = self.effective_overlap(spec);
                        weighted_sum += accelerated.scaled(g);
                        largest = largest.max(accelerated);
                    }
                }
            }
        }

        let accelerated = if self.invocation == InvocationModel::Chained {
            match chain_estimate(&chain_stages) {
                Ok(est) => est.chained_time,
                Err(ModelError::EmptyChain) => Seconds::ZERO,
                // audit: allow(panic, EmptyChain is chain_estimate's only error variant and is handled above)
                Err(_) => unreachable!("chain_estimate only fails on empty chains"),
            }
        } else if components.is_empty() {
            Seconds::ZERO
        } else {
            // Eq. 5: t_acc = max(Σ g_i * t'_i, t_lsub).
            weighted_sum.max(largest)
        };

        CpuEstimate {
            accelerated,
            unaccelerated,
            total: accelerated + unaccelerated,
            components,
        }
    }

    /// Applies the plan to one query: Equation 2 end-to-end, plus speedup.
    #[must_use]
    pub fn evaluate(&self, phases: &QueryPhases, breakdown: &CpuBreakdown) -> PlanOutcome {
        let cpu = self.accelerated_cpu(phases.cpu(), breakdown);
        let original_e2e = phases.end_to_end();
        let accelerated_e2e = accelerated_end_to_end_time(cpu.total, phases);
        PlanOutcome {
            original_e2e,
            accelerated_e2e,
            speedup: speedup_ratio(original_e2e, accelerated_e2e),
            cpu,
        }
    }
}

impl FromIterator<(CpuCategory, AcceleratorSpec)> for AccelerationPlan {
    /// Collects assignments under the default (synchronous) invocation model,
    /// keeping the *last* spec for a repeated category.
    fn from_iter<I: IntoIterator<Item = (CpuCategory, AcceleratorSpec)>>(iter: I) -> Self {
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        for (category, spec) in iter {
            plan.assign(category, spec);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{CoreComputeOp, DatacenterTax, SystemTax};

    fn proto() -> CpuCategory {
        CpuCategory::from(DatacenterTax::Protobuf)
    }
    fn compression() -> CpuCategory {
        CpuCategory::from(DatacenterTax::Compression)
    }
    fn read() -> CpuCategory {
        CpuCategory::from(CoreComputeOp::Read)
    }
    fn os() -> CpuCategory {
        CpuCategory::from(SystemTax::OperatingSystems)
    }

    fn even_breakdown() -> CpuBreakdown {
        CpuBreakdown::from_shares(
            Seconds::new(1.0),
            &[
                (proto(), 0.25),
                (compression(), 0.25),
                (read(), 0.25),
                (os(), 0.25),
            ],
        )
        .unwrap()
    }

    #[test]
    fn empty_plan_reproduces_baseline() {
        let plan = AccelerationPlan::new(InvocationModel::Synchronous);
        let phases = QueryPhases::new(Seconds::new(1.0), Seconds::ZERO, OverlapFactor::SYNCHRONOUS);
        let outcome = plan.evaluate(&phases, &even_breakdown());
        assert!((outcome.speedup - 1.0).abs() < 1e-9);
        assert!(outcome.cpu.components.is_empty());
    }

    #[test]
    fn synchronous_sums_accelerated_components() {
        // Accelerate protobuf + compression at 5x, sync: t'_cpu =
        // (0.25 + 0.25)/5 + 0.5 = 0.6.
        let plan = AccelerationPlan::uniform(
            [proto(), compression()],
            Speedup::new(5.0).unwrap(),
            InvocationModel::Synchronous,
        )
        .unwrap();
        let est = plan.accelerated_cpu(Seconds::new(1.0), &even_breakdown());
        assert!((est.total.as_secs() - 0.6).abs() < 1e-9);
        assert_eq!(est.components.len(), 2);
    }

    #[test]
    fn asynchronous_takes_max_component() {
        // Same accel set, async: t_acc = max(0.05, 0.05) = 0.05.
        let plan = AccelerationPlan::uniform(
            [proto(), compression()],
            Speedup::new(5.0).unwrap(),
            InvocationModel::Asynchronous,
        )
        .unwrap();
        let est = plan.accelerated_cpu(Seconds::new(1.0), &even_breakdown());
        assert!((est.accelerated.as_secs() - 0.05).abs() < 1e-9);
        assert!((est.total.as_secs() - 0.55).abs() < 1e-9);
    }

    #[test]
    fn async_never_slower_than_sync() {
        for s in [1.0, 2.0, 8.0, 64.0] {
            let sync = AccelerationPlan::uniform(
                [proto(), compression(), read(), os()],
                Speedup::new(s).unwrap(),
                InvocationModel::Synchronous,
            )
            .unwrap();
            let async_ = sync.with_invocation(InvocationModel::Asynchronous);
            let b = even_breakdown();
            let t_sync = sync.accelerated_cpu(Seconds::new(1.0), &b).total;
            let t_async = async_.accelerated_cpu(Seconds::new(1.0), &b).total;
            assert!(t_async <= t_sync);
        }
    }

    #[test]
    fn chained_matches_async_with_zero_penalties() {
        // With zero penalties, Eq. 10 reduces to Eq. 6.
        let plan = AccelerationPlan::uniform(
            [proto(), compression()],
            Speedup::new(5.0).unwrap(),
            InvocationModel::Chained,
        )
        .unwrap();
        let async_plan = plan.with_invocation(InvocationModel::Asynchronous);
        let b = even_breakdown();
        let chained = plan.accelerated_cpu(Seconds::new(1.0), &b);
        let asynced = async_plan.accelerated_cpu(Seconds::new(1.0), &b);
        assert!((chained.total.as_secs() - asynced.total.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn chained_amortizes_setup_versus_sync() {
        let setup = Seconds::from_millis(10.0);
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        let spec = AcceleratorSpec::ideal(Speedup::new(8.0).unwrap()).with_setup(setup);
        plan.assign(proto(), spec);
        plan.assign(compression(), spec);
        let chained = plan.with_invocation(InvocationModel::Chained);
        let b = even_breakdown();
        let t_sync = plan.accelerated_cpu(Seconds::new(1.0), &b).total;
        let t_chained = chained.accelerated_cpu(Seconds::new(1.0), &b).total;
        // Sync pays the setup twice; chained pays max once.
        assert!(t_sync.as_secs() > t_chained.as_secs() + 0.009);
    }

    #[test]
    fn per_component_honors_spec_overlap() {
        let mut plan = AccelerationPlan::new(InvocationModel::PerComponent);
        let half = OverlapFactor::new(0.5).unwrap();
        plan.assign(
            proto(),
            AcceleratorSpec::ideal(Speedup::new(1.0).unwrap()).with_overlap(half),
        );
        plan.assign(
            compression(),
            AcceleratorSpec::ideal(Speedup::new(1.0).unwrap()).with_overlap(half),
        );
        let est = plan.accelerated_cpu(Seconds::new(1.0), &even_breakdown());
        // Σ g t' = 0.5*(0.25+0.25) = 0.25; t_lsub = 0.25 → max = 0.25.
        assert!((est.accelerated.as_secs() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn uncovered_cpu_time_stays_unaccelerated() {
        let plan = AccelerationPlan::uniform(
            [proto()],
            Speedup::new(1000.0).unwrap(),
            InvocationModel::Synchronous,
        )
        .unwrap();
        // Breakdown only covers 0.5s of a 2s CPU time.
        let b: CpuBreakdown = [(proto(), Seconds::new(0.5))].into_iter().collect();
        let est = plan.accelerated_cpu(Seconds::new(2.0), &b);
        assert!((est.unaccelerated.as_secs() - 1.5).abs() < 1e-9);
        assert!(est.total.as_secs() > 1.5);
        assert!(est.total.as_secs() < 1.6);
    }

    #[test]
    fn off_chip_payload_can_cause_slowdown() {
        // The BigQuery phenomenon of Section 6.3.2: large payloads over a
        // 4 GB/s link make off-chip acceleration a net loss.
        let plan = AccelerationPlan::uniform(
            [proto()],
            Speedup::new(8.0).unwrap(),
            InvocationModel::Synchronous,
        )
        .unwrap()
        .with_placement(Placement::off_chip_pcie_gen5())
        .with_payload(Bytes::from_gib(10.0));
        let b: CpuBreakdown = [(proto(), Seconds::new(1.0))].into_iter().collect();
        let phases = QueryPhases::new(Seconds::new(1.0), Seconds::ZERO, OverlapFactor::SYNCHRONOUS);
        let outcome = plan.evaluate(&phases, &b);
        assert!(outcome.speedup < 1.0, "speedup {}", outcome.speedup);
    }

    #[test]
    fn try_assign_rejects_duplicates() {
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        let spec = AcceleratorSpec::ideal(Speedup::new(2.0).unwrap());
        plan.try_assign(proto(), spec).unwrap();
        assert!(plan.try_assign(proto(), spec).is_err());
        assert_eq!(plan.len(), 1);
        assert!(plan.assignments.contains_key(&proto()));
        assert!(!plan.assignments.contains_key(&read()));
    }

    #[test]
    fn evaluate_full_outcome() {
        let plan = AccelerationPlan::uniform(
            [proto(), compression(), read(), os()],
            Speedup::new(64.0).unwrap(),
            InvocationModel::Synchronous,
        )
        .unwrap();
        let phases = QueryPhases::new(
            Seconds::new(1.0),
            Seconds::new(1.0),
            OverlapFactor::SYNCHRONOUS,
        );
        let outcome = plan.evaluate(&phases, &even_breakdown());
        assert!((outcome.original_e2e.as_secs() - 2.0).abs() < 1e-9);
        // t'_cpu = 1/64; e2e' = 1/64 + 1.
        assert!((outcome.accelerated_e2e.as_secs() - (1.0 / 64.0 + 1.0)).abs() < 1e-9);
        assert!(outcome.speedup > 1.9 && outcome.speedup < 2.0);
    }
}
