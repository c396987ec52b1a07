//! Acceleration plans: which components get which accelerators, and how the
//! accelerated CPU time composes (Equations 3–6 and 9).
//!
//! An [`AccelerationPlan`] maps fine-grained [`CpuCategory`] components to
//! [`AcceleratorSpec`]s under an [`InvocationModel`]:
//!
//! - **Synchronous** — every accelerator invocation serializes with the core
//!   (`g_sub_i = 1`), so `t_acc = Σ t'_sub_i`.
//! - **Asynchronous** — all invocations overlap (`g_sub_i = 0`), so
//!   `t_acc = max(t'_sub_i)` (Eq. 6).
//! - **Chained** — all assigned accelerators form a pipeline whose time
//!   [`crate::chained`] gives (Eqs. 10–12); Eq. 9 adds it to `t_nacc`.
//!
//! The invocation model alone sets every component's `g_sub_i`; Eq. 5,
//! `t_acc = max(Σ g_sub_i · t'_sub_i, t_lsub)`, covers the first two. A plan
//! returns `t'_cpu`, and Equation 2 ([`crate::model`]) turns it into the
//! accelerated end-to-end time `t'_e2e` the limit studies read.

use std::collections::BTreeMap;

use crate::accel::{AcceleratorSpec, Speedup};
use crate::category::CpuCategory;
use crate::chained::{chain_estimate, ChainStage};
use crate::component::CpuBreakdown;
use crate::error::ModelError;
use crate::model::{accelerated_end_to_end_time, QueryPhases};
use crate::units::Seconds;

/// How accelerator invocations relate to one another (Section 6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvocationModel {
    /// Strict serial dependency between the core and every accelerator.
    Synchronous,
    /// Ideal case: all accelerator invocations execute in parallel.
    Asynchronous,
    /// Accelerators stream to one another without core coordination.
    Chained,
}

impl std::fmt::Display for InvocationModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            InvocationModel::Synchronous => "Sync",
            InvocationModel::Asynchronous => "Async",
            InvocationModel::Chained => "Chained",
        };
        f.write_str(name)
    }
}

/// A sea-of-accelerators configuration: component → accelerator assignments
/// plus the invocation model.
///
/// # Examples
///
/// ```
/// use hsdp_core::accel::Speedup;
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
/// let phases = QueryPhases::new(Seconds::new(1.0), Seconds::ZERO);
/// // Both halves run 8x faster, one after the other: t'_e2e = 1s / 8.
/// let accelerated = plan.evaluate(&phases, &breakdown);
/// assert!((accelerated.as_secs() - 0.125).abs() < 1e-12);
/// # Ok::<(), hsdp_core::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
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

    /// The accelerated CPU time `t'_cpu` for a query whose CPU time divides
    /// per `breakdown` (Equations 3–6 and 9).
    ///
    /// CPU time present in `total_cpu` but not covered by the breakdown is
    /// treated as unaccelerated (it joins `t_nacc`). If the breakdown's total
    /// exceeds `total_cpu`, the breakdown is authoritative.
    #[must_use]
    pub fn accelerated_cpu(&self, total_cpu: Seconds, breakdown: &CpuBreakdown) -> Seconds {
        // Eq. 5's g_sub_i, the same for every component: 0 when all
        // invocations overlap, 1 when each serializes with the core.
        let g = if self.invocation == InvocationModel::Asynchronous {
            0.0
        } else {
            1.0
        };
        let mut unaccelerated = total_cpu - breakdown.total(); // saturating
        let mut chain = Vec::new();
        let mut weighted_sum = Seconds::ZERO; // Σ g_sub_i * t'_sub_i
        let mut largest = Seconds::ZERO; // t_lsub (Eq. 6)

        for (category, original) in breakdown.iter() {
            match self.assignments.get(&category) {
                None => unaccelerated += original,
                Some(&spec) if self.invocation == InvocationModel::Chained => {
                    chain.push(ChainStage {
                        category,
                        original,
                        spec,
                    });
                }
                Some(spec) => {
                    let accelerated = spec.accelerated_time(original);
                    weighted_sum += accelerated.scaled(g);
                    largest = largest.max(accelerated);
                }
            }
        }

        let accelerated = if self.invocation == InvocationModel::Chained {
            // Eq. 10: t_chnd.
            chain_estimate(&chain).chained_time
        } else {
            // Eq. 5: t_acc = max(Σ g_i * t'_i, t_lsub).
            weighted_sum.max(largest)
        };
        // Eq. 3 / Eq. 9: t'_cpu = t_acc + t_nacc.
        accelerated + unaccelerated
    }

    /// Applies the plan to one query: the accelerated end-to-end time
    /// `t'_e2e` of Equation 2.
    #[must_use]
    pub fn evaluate(&self, phases: &QueryPhases, breakdown: &CpuBreakdown) -> Seconds {
        accelerated_end_to_end_time(self.accelerated_cpu(phases.cpu(), breakdown), phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::Placement;
    use crate::category::{CoreComputeOp, DatacenterTax, SystemTax};
    use crate::units::Bytes;

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
        // Under Chained too: Eq. 10 over an empty chain takes no time.
        let phases = QueryPhases::new(Seconds::new(1.0), Seconds::ZERO);
        for invocation in [
            InvocationModel::Synchronous,
            InvocationModel::Asynchronous,
            InvocationModel::Chained,
        ] {
            let plan = AccelerationPlan::new(invocation);
            assert_eq!(
                plan.evaluate(&phases, &even_breakdown()),
                phases.end_to_end(),
                "{invocation}"
            );
        }
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
        let t = plan.accelerated_cpu(Seconds::new(1.0), &even_breakdown());
        assert!((t.as_secs() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn asynchronous_takes_max_component() {
        // Same accel set, async: t_acc = max(0.05, 0.05) = 0.05, so
        // t'_cpu = 0.05 + 0.5 (the sum would give 0.6).
        let plan = AccelerationPlan::uniform(
            [proto(), compression()],
            Speedup::new(5.0).unwrap(),
            InvocationModel::Asynchronous,
        )
        .unwrap();
        let t = plan.accelerated_cpu(Seconds::new(1.0), &even_breakdown());
        assert!((t.as_secs() - 0.55).abs() < 1e-9);
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
            let t_sync = sync.accelerated_cpu(Seconds::new(1.0), &b);
            let t_async = async_.accelerated_cpu(Seconds::new(1.0), &b);
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
        assert!((chained.as_secs() - asynced.as_secs()).abs() < 1e-12);
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
        let t_sync = plan.accelerated_cpu(Seconds::new(1.0), &b);
        let t_chained = chained.accelerated_cpu(Seconds::new(1.0), &b);
        // Sync pays the setup twice; chained pays max once.
        assert!(t_sync.as_secs() > t_chained.as_secs() + 0.009);
    }

    #[test]
    fn uncovered_cpu_time_stays_unaccelerated() {
        let plan = AccelerationPlan::uniform(
            [proto()],
            Speedup::new(1000.0).unwrap(),
            InvocationModel::Synchronous,
        )
        .unwrap();
        // Breakdown only covers 0.5s of a 2s CPU time: t'_cpu = 0.5/1000
        // plus the uncovered 1.5s.
        let b: CpuBreakdown = [(proto(), Seconds::new(0.5))].into_iter().collect();
        let t = plan.accelerated_cpu(Seconds::new(2.0), &b);
        assert!((t.as_secs() - 1.5005).abs() < 1e-9);
    }

    #[test]
    fn off_chip_payload_can_cause_slowdown() {
        // The BigQuery phenomenon of Section 6.3.2: large payloads over a
        // 4 GB/s link make off-chip acceleration a net loss.
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        plan.assign(
            proto(),
            AcceleratorSpec::ideal(Speedup::new(8.0).unwrap())
                .with_placement(Placement::off_chip_pcie_gen5())
                .with_payload(Bytes::from_gib(10.0)),
        );
        let b: CpuBreakdown = [(proto(), Seconds::new(1.0))].into_iter().collect();
        let phases = QueryPhases::new(Seconds::new(1.0), Seconds::ZERO);
        let accelerated = plan.evaluate(&phases, &b);
        assert!(
            accelerated > phases.end_to_end(),
            "accelerated {accelerated}"
        );
    }

    #[test]
    fn try_assign_rejects_duplicates() {
        let mut plan = AccelerationPlan::new(InvocationModel::Synchronous);
        let spec = AcceleratorSpec::ideal(Speedup::new(2.0).unwrap());
        plan.try_assign(proto(), spec).unwrap();
        assert!(plan.try_assign(proto(), spec).is_err());
        assert_eq!(plan.assignments.len(), 1);
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
        let phases = QueryPhases::new(Seconds::new(1.0), Seconds::new(1.0));
        assert!((phases.end_to_end().as_secs() - 2.0).abs() < 1e-9);
        // t'_cpu = 1/64; e2e' = 1/64 + 1.
        let accelerated = plan.evaluate(&phases, &even_breakdown());
        assert!((accelerated.as_secs() - (1.0 / 64.0 + 1.0)).abs() < 1e-9);
    }
}
