//! CPU-time breakdowns: how a query's (or a platform's) CPU time divides
//! across fine-grained [`CpuCategory`] components.
//!
//! A [`CpuBreakdown`] is the model's view of "where CPU cycles go" — the
//! `t_sub_i` inputs of Figure 7 — and is produced either from the paper's
//! published fractions ([`crate::paper`]) or measured from the simulated
//! platforms by `hsdp-profiling`.

use std::collections::BTreeMap;

use crate::category::{BroadCategory, CpuCategory};
use crate::error::ModelError;
use crate::units::Seconds;

/// Tolerance when checking that shares sum to 1.
const SHARE_SUM_TOLERANCE: f64 = 1e-6;

/// A decomposition of CPU time into disjoint fine-grained components.
///
/// Components are keyed by [`CpuCategory`]; each category appears at most
/// once. The breakdown's total is the sum of its component times (`t_cpu`).
///
/// # Examples
///
/// ```
/// use hsdp_core::category::{CpuCategory, DatacenterTax, CoreComputeOp};
/// use hsdp_core::component::CpuBreakdown;
/// use hsdp_core::units::Seconds;
///
/// let breakdown = CpuBreakdown::from_shares(
///     Seconds::new(1.0),
///     &[
///         (CpuCategory::from(DatacenterTax::Protobuf), 0.25),
///         (CpuCategory::from(CoreComputeOp::Read), 0.75),
///     ],
/// )?;
/// assert!((breakdown.total().as_secs() - 1.0).abs() < 1e-9);
/// # Ok::<(), hsdp_core::error::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CpuBreakdown {
    components: BTreeMap<CpuCategory, Seconds>,
}

impl CpuBreakdown {
    /// Creates an empty breakdown (zero CPU time).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a breakdown from a total CPU time and fractional shares.
    ///
    /// The shares must sum to 1 within a small tolerance; this mirrors how the
    /// paper reports per-category percentages in Figures 3–6.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnnormalizedBreakdown`] if the shares do not sum
    /// to 1, [`ModelError::DuplicateComponent`] on duplicate categories, or
    /// [`ModelError::InvalidQuantity`] if a share is negative.
    pub fn from_shares(total: Seconds, shares: &[(CpuCategory, f64)]) -> Result<Self, ModelError> {
        let sum: f64 = shares.iter().map(|(_, s)| s).sum();
        if (sum - 1.0).abs() > SHARE_SUM_TOLERANCE {
            return Err(ModelError::UnnormalizedBreakdown { sum });
        }
        let mut components = BTreeMap::new();
        for &(category, share) in shares {
            if !(share.is_finite() && share >= 0.0) {
                return Err(ModelError::InvalidQuantity {
                    quantity: "share",
                    value: share,
                });
            }
            if components.insert(category, total.scaled(share)).is_some() {
                return Err(ModelError::DuplicateComponent {
                    category: category.to_string(),
                });
            }
        }
        Ok(CpuBreakdown { components })
    }

    /// Adds (or accumulates into) a component.
    pub fn add(&mut self, category: CpuCategory, time: Seconds) {
        *self.components.entry(category).or_insert(Seconds::ZERO) += time;
    }

    /// The time attributed to `category`, zero if absent.
    #[must_use]
    pub fn time(&self, category: CpuCategory) -> Seconds {
        self.components
            .get(&category)
            .copied()
            .unwrap_or(Seconds::ZERO)
    }

    /// Total CPU time across all components (`t_cpu`).
    #[must_use]
    pub fn total(&self) -> Seconds {
        self.components.values().copied().sum()
    }

    /// The fraction of total CPU time attributed to `category`.
    ///
    /// Returns 0 when the breakdown is empty.
    #[must_use]
    pub fn share(&self, category: CpuCategory) -> f64 {
        self.time(category).ratio(self.total()).unwrap_or(0.0)
    }

    /// Total time attributed to a broad category (Figure 3 rows).
    #[must_use]
    pub fn broad_time(&self, broad: BroadCategory) -> Seconds {
        self.components
            .iter()
            .filter(|(cat, _)| cat.broad() == broad)
            .map(|(_, t)| *t)
            .sum()
    }

    /// The fraction of total CPU time attributed to a broad category.
    #[must_use]
    pub fn broad_share(&self, broad: BroadCategory) -> f64 {
        self.broad_time(broad).ratio(self.total()).unwrap_or(0.0)
    }

    /// Number of components with recorded time.
    #[must_use]
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if no component has recorded time.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Iterates over `(category, time)` pairs in category order.
    pub fn iter(&self) -> impl Iterator<Item = (CpuCategory, Seconds)> + '_ {
        self.components.iter().map(|(c, t)| (*c, *t))
    }

    /// Returns a breakdown scaled so its total equals `new_total`, preserving
    /// the component shares.
    ///
    /// Useful for instantiating the fleet-level percentage breakdowns of the
    /// paper at a particular query's CPU time.
    #[must_use]
    pub fn rescaled(&self, new_total: Seconds) -> CpuBreakdown {
        let total = self.total();
        if total.is_zero() {
            return CpuBreakdown::new();
        }
        let factor = new_total.as_secs() / total.as_secs();
        CpuBreakdown {
            components: self
                .components
                .iter()
                .map(|(c, t)| (*c, t.scaled(factor)))
                .collect(),
        }
    }

    /// Merges another breakdown into this one, summing per-category times.
    pub fn merge(&mut self, other: &CpuBreakdown) {
        for (category, time) in other.iter() {
            self.add(category, time);
        }
    }

    /// The categories present, in stable order.
    #[must_use]
    pub fn categories(&self) -> Vec<CpuCategory> {
        self.components.keys().copied().collect()
    }
}

impl FromIterator<(CpuCategory, Seconds)> for CpuBreakdown {
    /// Collects `(category, time)` pairs, *accumulating* duplicates.
    fn from_iter<I: IntoIterator<Item = (CpuCategory, Seconds)>>(iter: I) -> Self {
        let mut breakdown = CpuBreakdown::new();
        for (category, time) in iter {
            breakdown.add(category, time);
        }
        breakdown
    }
}

impl Extend<(CpuCategory, Seconds)> for CpuBreakdown {
    fn extend<I: IntoIterator<Item = (CpuCategory, Seconds)>>(&mut self, iter: I) {
        for (category, time) in iter {
            self.add(category, time);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::{CoreComputeOp, DatacenterTax, SystemTax};

    fn cat_read() -> CpuCategory {
        CpuCategory::from(CoreComputeOp::Read)
    }
    fn cat_proto() -> CpuCategory {
        CpuCategory::from(DatacenterTax::Protobuf)
    }
    fn cat_os() -> CpuCategory {
        CpuCategory::from(SystemTax::OperatingSystems)
    }

    #[test]
    fn from_shares_distributes_total() {
        let b = CpuBreakdown::from_shares(
            Seconds::new(10.0),
            &[(cat_read(), 0.5), (cat_proto(), 0.3), (cat_os(), 0.2)],
        )
        .unwrap();
        assert!((b.time(cat_read()).as_secs() - 5.0).abs() < 1e-9);
        assert!((b.time(cat_proto()).as_secs() - 3.0).abs() < 1e-9);
        assert!((b.total().as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn from_shares_rejects_unnormalized() {
        let err = CpuBreakdown::from_shares(Seconds::new(1.0), &[(cat_read(), 0.5)]).unwrap_err();
        assert!(matches!(err, ModelError::UnnormalizedBreakdown { .. }));
    }

    #[test]
    fn from_shares_rejects_negative_share() {
        let err =
            CpuBreakdown::from_shares(Seconds::new(1.0), &[(cat_read(), 1.5), (cat_proto(), -0.5)])
                .unwrap_err();
        assert!(matches!(err, ModelError::InvalidQuantity { .. }));
    }

    #[test]
    fn broad_rollups() {
        let b = CpuBreakdown::from_shares(
            Seconds::new(1.0),
            &[(cat_read(), 0.4), (cat_proto(), 0.35), (cat_os(), 0.25)],
        )
        .unwrap();
        assert!((b.broad_share(BroadCategory::CoreCompute) - 0.4).abs() < 1e-9);
        assert!((b.broad_share(BroadCategory::DatacenterTax) - 0.35).abs() < 1e-9);
        assert!((b.broad_share(BroadCategory::SystemTax) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn collect_accumulates_duplicates() {
        let b: CpuBreakdown = [
            (cat_read(), Seconds::new(1.0)),
            (cat_read(), Seconds::new(2.0)),
        ]
        .into_iter()
        .collect();
        assert!((b.time(cat_read()).as_secs() - 3.0).abs() < 1e-9);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn rescale_preserves_shares() {
        let b =
            CpuBreakdown::from_shares(Seconds::new(2.0), &[(cat_read(), 0.7), (cat_proto(), 0.3)])
                .unwrap();
        let r = b.rescaled(Seconds::new(10.0));
        assert!((r.total().as_secs() - 10.0).abs() < 1e-9);
        assert!((r.share(cat_read()) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn rescale_of_empty_is_empty() {
        let b = CpuBreakdown::new();
        assert!(b.rescaled(Seconds::new(5.0)).is_empty());
        assert_eq!(b.share(cat_read()), 0.0);
    }

    #[test]
    fn merge_sums_components() {
        let mut a: CpuBreakdown = [(cat_read(), Seconds::new(1.0))].into_iter().collect();
        let b: CpuBreakdown = [
            (cat_read(), Seconds::new(2.0)),
            (cat_os(), Seconds::new(1.0)),
        ]
        .into_iter()
        .collect();
        a.merge(&b);
        assert!((a.time(cat_read()).as_secs() - 3.0).abs() < 1e-9);
        assert_eq!(a.len(), 2);
    }
}
