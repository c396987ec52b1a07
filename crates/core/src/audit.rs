//! Model-invariant auditor: cross-checks the analytical model against the
//! identities the paper's equations guarantee by construction.
//!
//! Every check here is a *redundant* computation: the model already produces
//! these quantities, and this module re-derives the constraints they must
//! satisfy — cycle-breakdown shares summing to one, the broad tax categories
//! partitioning total CPU time (Figure 3), Equation 1 end-to-end times
//! staying between the fully-overlapped and fully-serial extremes, each
//! Figure 2 row's disjoint phases covering its end-to-end time, and the
//! Eq. 9 / Eq. 10 aggregate speedups staying at or above 1x and growing
//! monotonically with the offloaded fraction of CPU work.
//!
//! The checks run in three places:
//!
//! 1. `debug_assert!` hooks in [`crate::model`] and [`crate::study`] — free
//!    in release builds, always-on in the test suite;
//! 2. the [`audit`] umbrella, which sweeps one whole [`QueryPopulation`];
//! 3. tests that run [`audit`] over every calibrated platform population
//!    from [`crate::paper`] and over every population the simulated fleet
//!    measures.

use std::fmt;

use crate::accel::{AcceleratorSpec, Speedup};
use crate::category::{BroadCategory, CpuCategory};
use crate::component::CpuBreakdown;
use crate::plan::{AccelerationPlan, InvocationModel};
use crate::profile::QueryPopulation;
use crate::units::Seconds;

/// Relative tolerance for share sums, partitions, and monotonicity. The
/// model accumulates tens of `f64` terms, so the slack is generous relative
/// to machine epsilon while still catching any real modelling error.
pub const TOLERANCE: f64 = 1e-9;

/// One violated model invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Short name of the invariant that failed (e.g. `"share-sum"`).
    pub invariant: &'static str,
    /// Human-readable description of the observed inconsistency.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// The error returned by [`audit`]: every invariant violation found.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditFailure {
    /// The violations, in discovery order.
    pub violations: Vec<Violation>,
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} model invariant(s) violated:", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

impl std::error::Error for AuditFailure {}

/// True when an Equation 1 result lies within its algebraic bounds:
/// `max(t_cpu, t_dep) <= t_e2e <= t_cpu + t_dep`, the range the paper's form
/// spans as its synchronization factor `f` runs from 0 to 1.
///
/// This is the [`crate::model::end_to_end_time`] `debug_assert!` hook.
#[must_use]
pub fn e2e_within_bounds(cpu: Seconds, dep: Seconds, e2e: Seconds) -> bool {
    let lo = cpu.max(dep).as_secs();
    let hi = (cpu + dep).as_secs();
    let t = e2e.as_secs();
    let slack = TOLERANCE * (hi + 1.0);
    t >= lo - slack && t <= hi + slack
}

/// Checks one CPU-time breakdown:
///
/// - fine-category shares sum to `1 ± ε` (and each lies in `[0, 1]`);
/// - the three broad categories of Figure 3 partition the total time, and
///   their shares also sum to `1 ± ε`.
///
/// An empty (zero-total) breakdown is vacuously consistent.
#[must_use]
pub fn check_breakdown(breakdown: &CpuBreakdown) -> Vec<Violation> {
    let mut violations = Vec::new();
    let total = breakdown.total().as_secs();
    if total <= 0.0 {
        return violations;
    }

    let mut share_sum = 0.0;
    for category in breakdown.categories() {
        let share = breakdown.share(category);
        if !(0.0 - TOLERANCE..=1.0 + TOLERANCE).contains(&share) {
            violations.push(Violation {
                invariant: "share-range",
                detail: format!("category {category:?} has share {share} outside [0, 1]"),
            });
        }
        share_sum += share;
    }
    if (share_sum - 1.0).abs() > TOLERANCE {
        violations.push(Violation {
            invariant: "share-sum",
            detail: format!("fine-category shares sum to {share_sum}, expected 1"),
        });
    }

    let mut broad_sum = 0.0;
    let mut broad_share_sum = 0.0;
    for broad in BroadCategory::ALL {
        broad_sum += breakdown.broad_time(broad).as_secs();
        broad_share_sum += breakdown.broad_share(broad);
    }
    if (broad_sum - total).abs() > TOLERANCE * (total + 1.0) {
        violations.push(Violation {
            invariant: "broad-partition",
            detail: format!(
                "broad-category times sum to {broad_sum}, but the breakdown total is {total}"
            ),
        });
    }
    if (broad_share_sum - 1.0).abs() > TOLERANCE {
        violations.push(Violation {
            invariant: "broad-share-sum",
            detail: format!("broad-category shares sum to {broad_share_sum}, expected 1"),
        });
    }
    violations
}

/// Checks a speedup curve sampled over an increasing driver variable
/// (per-accelerator speedup, offload fraction, ...): every value must be at
/// least 1x (the Eq. 9 / Eq. 10 lower bound for loss-free accelerators) and
/// the curve must be monotonically non-decreasing wherever the driver is.
///
/// `points` are `(driver, aggregate speedup)` pairs; `label` names the curve
/// in violation messages.
#[must_use]
pub fn check_speedup_curve(label: &str, points: &[(f64, f64)]) -> Vec<Violation> {
    let mut violations = Vec::new();
    for &(x, y) in points {
        if y < 1.0 - TOLERANCE {
            violations.push(Violation {
                invariant: "speedup-bound",
                detail: format!("{label}: speedup {y} at driver {x} is below the 1x bound"),
            });
        }
    }
    for pair in points.windows(2) {
        let (x0, y0) = pair[0];
        let (x1, y1) = pair[1];
        if x1 >= x0 && y1 < y0 - TOLERANCE * (y0.abs() + 1.0) {
            violations.push(Violation {
                invariant: "speedup-monotone",
                detail: format!(
                    "{label}: speedup falls from {y0} to {y1} as the driver rises from {x0} to {x1}"
                ),
            });
        }
    }
    violations
}

/// Checks that the aggregate speedup is monotone in the *offload fraction*:
/// accelerating a strictly larger set of CPU components with identical
/// loss-free accelerators can never slow the population down, under both the
/// synchronous (Eq. 9) and chained (Eq. 10) invocation models.
#[must_use]
pub fn check_offload_monotonicity(
    population: &QueryPopulation,
    categories: &[CpuCategory],
    speedup: Speedup,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    let denom = categories.len().max(1);
    for invocation in [InvocationModel::Synchronous, InvocationModel::Chained] {
        let mut points = Vec::with_capacity(categories.len() + 1);
        for offloaded in 0..=categories.len() {
            let mut plan = AccelerationPlan::new(invocation);
            for &category in &categories[..offloaded] {
                plan.assign(category, AcceleratorSpec::ideal(speedup));
            }
            // The offload fraction is the share of components accelerated.
            let fraction = divide(offloaded, denom);
            points.push((fraction, population.aggregate_speedup(&plan)));
        }
        let label = match invocation {
            InvocationModel::Chained => "Eq. 10 chained offload sweep",
            _ => "Eq. 9 synchronous offload sweep",
        };
        violations.extend(check_speedup_curve(label, &points));
    }
    violations
}

/// Checks a whole population:
///
/// - every record's breakdown passes [`check_breakdown`], and its CPU time
///   matches the breakdown total;
/// - every record's Equation 1 end-to-end time sits within bounds;
/// - the weighted fleet breakdown passes [`check_breakdown`];
/// - the Figure 2 group rows partition the population (query fractions sum
///   to 1), and each populated row's CPU/remote/IO shares sum to 1: the
///   phases are disjoint, so they cover the end-to-end time exactly.
#[must_use]
pub fn check_population(population: &QueryPopulation) -> Vec<Violation> {
    let mut violations = Vec::new();

    for (idx, record) in population.records().iter().enumerate() {
        if record.weight <= 0.0 {
            violations.push(Violation {
                invariant: "weight-positive",
                detail: format!("record {idx} has non-positive weight {}", record.weight),
            });
        }
        let cpu = record.cpu.as_secs();
        let accounted = record.breakdown.total().as_secs();
        if (cpu - accounted).abs() > TOLERANCE * (cpu + 1.0) {
            violations.push(Violation {
                invariant: "breakdown-total",
                detail: format!(
                    "record {idx}: breakdown accounts for {accounted}s of {cpu}s CPU time"
                ),
            });
        }
        violations.extend(check_breakdown(&record.breakdown));
        let phases = record.phases();
        if !e2e_within_bounds(record.cpu, record.dep(), phases.end_to_end()) {
            violations.push(Violation {
                invariant: "e2e-bounds",
                detail: format!(
                    "record {idx}: Eq. 1 end-to-end time {}s escapes [max(t_cpu, t_dep), t_cpu + t_dep]",
                    phases.end_to_end().as_secs()
                ),
            });
        }
    }

    violations.extend(check_breakdown(&population.fleet_breakdown()));

    let rows = population.e2e_breakdown();
    // The last row is the synthetic "Overall" row; the group rows before it
    // must partition the population by weight.
    if let Some((_overall, groups)) = rows.split_last() {
        if !population.records().is_empty() {
            let fraction_sum: f64 = groups.iter().map(|r| r.query_fraction).sum();
            if (fraction_sum - 1.0).abs() > TOLERANCE {
                violations.push(Violation {
                    invariant: "group-partition",
                    detail: format!("group query fractions sum to {fraction_sum}, expected 1"),
                });
            }
        }
        for row in &rows {
            let phase_sum = row.cpu_share + row.remote_share + row.io_share;
            let populated = row.query_fraction > 0.0 && phase_sum > 0.0;
            if populated && (phase_sum - 1.0).abs() > TOLERANCE {
                violations.push(Violation {
                    invariant: "phase-partition",
                    detail: format!(
                        "group {} has CPU/remote/IO shares summing to {phase_sum}",
                        row.group
                    ),
                });
            }
        }
    }
    violations
}

/// The umbrella auditor: runs every structural check over `population` plus
/// the Eq. 9 / Eq. 10 offload-fraction monotonicity sweep at the Figure 13
/// per-accelerator speedup.
///
/// # Errors
///
/// Returns an [`AuditFailure`] listing every violated invariant.
pub fn audit(population: &QueryPopulation) -> Result<(), AuditFailure> {
    let mut violations = check_population(population);
    match Speedup::new(crate::study::FEATURE_STUDY_SPEEDUP) {
        Ok(speedup) => {
            let categories = population.fleet_breakdown().categories();
            violations.extend(check_offload_monotonicity(population, &categories, speedup));
        }
        Err(err) => violations.push(Violation {
            invariant: "speedup-constant",
            detail: format!("FEATURE_STUDY_SPEEDUP is not a valid speedup: {err}"),
        }),
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(AuditFailure { violations })
    }
}

/// Integer division into a fraction without tripping the units lint on
/// intermediate names.
fn divide(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        // Both operands are small component counts, exactly representable.
        // audit: allow(cast, component counts are tiny and exactly representable in f64)
        numerator as f64 / denominator as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::Platform;
    use crate::paper;
    use crate::units::Seconds;

    #[test]
    fn every_calibrated_population_audits_clean() {
        for platform in Platform::ALL {
            let population = paper::query_population(platform);
            if let Err(failure) = audit(&population) {
                panic!("{platform:?} population violates model invariants:\n{failure}");
            }
        }
    }

    #[test]
    fn every_calibrated_fleet_breakdown_is_consistent() {
        for platform in Platform::ALL {
            let violations = check_breakdown(&paper::fleet_breakdown(platform));
            assert!(violations.is_empty(), "{platform:?}: {violations:?}");
        }
    }

    #[test]
    fn e2e_bounds_accept_the_overlap_extremes() {
        let cpu = Seconds::new(2.0);
        let dep = Seconds::new(3.0);
        // Fully synchronous: t = 5. Fully asynchronous: t = 3.
        assert!(e2e_within_bounds(cpu, dep, Seconds::new(5.0)));
        assert!(e2e_within_bounds(cpu, dep, Seconds::new(3.0)));
        assert!(!e2e_within_bounds(cpu, dep, Seconds::new(5.5)));
        assert!(!e2e_within_bounds(cpu, dep, Seconds::new(2.5)));
    }

    #[test]
    fn speedup_curve_catches_bound_and_monotonicity_breaks() {
        let ok = check_speedup_curve("test", &[(0.0, 1.0), (0.5, 1.4), (1.0, 2.0)]);
        assert!(ok.is_empty(), "{ok:?}");

        let below = check_speedup_curve("test", &[(0.0, 0.8)]);
        assert_eq!(below.len(), 1);
        assert_eq!(below[0].invariant, "speedup-bound");

        let falling = check_speedup_curve("test", &[(0.0, 2.0), (1.0, 1.5)]);
        assert_eq!(falling.len(), 1);
        assert_eq!(falling[0].invariant, "speedup-monotone");
    }

    #[test]
    fn offload_monotonicity_holds_on_calibrated_populations() {
        for platform in Platform::ALL {
            let population = paper::query_population(platform);
            let categories = paper::accelerated_categories(platform);
            let speedup = Speedup::new(8.0).expect("8x is a valid speedup");
            let violations = check_offload_monotonicity(&population, &categories, speedup);
            assert!(violations.is_empty(), "{platform:?}: {violations:?}");
        }
    }

    #[test]
    fn audit_failure_reports_every_violation() {
        let failure = AuditFailure {
            violations: vec![
                Violation {
                    invariant: "share-sum",
                    detail: "shares sum to 0.9".into(),
                },
                Violation {
                    invariant: "speedup-bound",
                    detail: "speedup 0.5".into(),
                },
            ],
        };
        let text = failure.to_string();
        assert!(text.contains("2 model invariant(s)"));
        assert!(text.contains("share-sum"));
        assert!(text.contains("speedup-bound"));
    }
}
