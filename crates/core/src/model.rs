//! The base analytical model: end-to-end time with CPU / non-CPU overlap
//! (Equations 1–2 of Figure 7).
//!
//! A query's execution is summarized by [`QueryPhases`]: CPU time `t_cpu`,
//! non-CPU dependency time `t_dep` (distributed storage IO and remote work),
//! and the synchronization factor `f` between them. Equation 1 composes them:
//!
//! ```text
//! t_e2e = t_cpu + t_dep - (1 - f) * min(t_cpu, t_dep)
//! ```
//!
//! `f = 1` means CPU and its dependencies fully serialize; `f = 0` means the
//! smaller of the two is completely hidden under the larger.

use crate::accel::OverlapFactor;
use crate::units::Seconds;

/// The coarse phases of one query (or one aggregated query class).
///
/// # Examples
///
/// ```
/// use hsdp_core::model::QueryPhases;
/// use hsdp_core::accel::OverlapFactor;
/// use hsdp_core::units::Seconds;
///
/// // Fully serialized CPU and IO: e2e is the plain sum.
/// let q = QueryPhases::new(
///     Seconds::new(2.0),
///     Seconds::new(3.0),
///     OverlapFactor::SYNCHRONOUS,
/// );
/// assert!((q.end_to_end().as_secs() - 5.0).abs() < 1e-12);
/// ```
///
/// These are the inputs `t_cpu`, `t_dep`, and `f` of Equation 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPhases {
    cpu: Seconds,
    dep: Seconds,
    overlap: OverlapFactor,
}

impl QueryPhases {
    /// Creates phases from CPU time, non-CPU dependency time, and the
    /// synchronization factor `f` between them — the inputs of Equation 1.
    #[must_use]
    pub fn new(cpu: Seconds, dep: Seconds, overlap: OverlapFactor) -> Self {
        QueryPhases { cpu, dep, overlap }
    }

    /// The CPU time `t_cpu` of Equation 1.
    #[must_use]
    pub fn cpu(&self) -> Seconds {
        self.cpu
    }

    /// The non-CPU dependency time `t_dep` of Equation 1 (IO + remote work).
    #[must_use]
    pub fn dep(&self) -> Seconds {
        self.dep
    }

    /// The synchronization factor `f` of Equation 1.
    #[must_use]
    pub fn overlap(&self) -> OverlapFactor {
        self.overlap
    }

    /// End-to-end time per Equation 1.
    #[must_use]
    pub fn end_to_end(&self) -> Seconds {
        end_to_end_time(self.cpu, self.dep, self.overlap)
    }

    /// Phases with the non-CPU dependencies removed — the paper's
    /// software-hardware co-design scenario ("Without Remote Work & IO",
    /// Figures 9–10).
    #[must_use]
    pub fn without_dependencies(&self) -> QueryPhases {
        QueryPhases::new(self.cpu, Seconds::ZERO, self.overlap)
    }
}

/// Equation 1: `t_e2e = t_cpu + t_dep - (1 - f) * min(t_cpu, t_dep)`.
#[must_use]
pub fn end_to_end_time(cpu: Seconds, dep: Seconds, overlap: OverlapFactor) -> Seconds {
    let hidden = cpu.min(dep).scaled(1.0 - overlap.value());
    let e2e = cpu + dep - hidden;
    debug_assert!(
        crate::audit::e2e_within_bounds(cpu, dep, e2e),
        "Eq. 1 result {e2e:?} escapes [max(t_cpu, t_dep), t_cpu + t_dep] \
         for cpu={cpu:?} dep={dep:?} f={overlap:?}"
    );
    e2e
}

/// Equation 2: end-to-end time with the CPU term replaced by its accelerated
/// estimate `t'_cpu`, holding `t_dep` and `f` fixed.
#[must_use]
pub fn accelerated_end_to_end_time(accelerated_cpu: Seconds, phases: &QueryPhases) -> Seconds {
    end_to_end_time(accelerated_cpu, phases.dep(), phases.overlap())
}

/// The speedup of `accelerated` relative to `original` end-to-end time —
/// the metric reported by the Figure 9 and Figure 10 studies.
///
/// Returns 1.0 when both are zero (an empty query neither speeds up nor slows
/// down); returns `f64::INFINITY` when only the accelerated time is zero.
#[must_use]
pub fn speedup_ratio(original: Seconds, accelerated: Seconds) -> f64 {
    if accelerated.is_zero() {
        if original.is_zero() {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        original.as_secs() / accelerated.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ModelError;

    #[test]
    fn eq1_synchronous_is_sum() {
        let t = end_to_end_time(
            Seconds::new(2.0),
            Seconds::new(3.0),
            OverlapFactor::SYNCHRONOUS,
        );
        assert!((t.as_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_asynchronous_hides_smaller_phase() {
        let t = end_to_end_time(
            Seconds::new(2.0),
            Seconds::new(3.0),
            OverlapFactor::ASYNCHRONOUS,
        );
        // min(2,3) fully hidden: 2 + 3 - 2 = 3 = max.
        assert!((t.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eq1_partial_overlap() -> Result<(), ModelError> {
        let f = OverlapFactor::new(0.5)?;
        let t = end_to_end_time(Seconds::new(2.0), Seconds::new(3.0), f);
        // 2 + 3 - 0.5 * 2 = 4.
        assert!((t.as_secs() - 4.0).abs() < 1e-12);
        Ok(())
    }

    #[test]
    fn eq2_substitutes_cpu() {
        let q = QueryPhases::new(
            Seconds::new(4.0),
            Seconds::new(1.0),
            OverlapFactor::SYNCHRONOUS,
        );
        let t = accelerated_end_to_end_time(Seconds::new(1.0), &q);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn without_dependencies_zeroes_dep() {
        let q = QueryPhases::new(
            Seconds::new(4.0),
            Seconds::new(10.0),
            OverlapFactor::SYNCHRONOUS,
        );
        let stripped = q.without_dependencies();
        assert!(stripped.dep().is_zero());
        assert!((stripped.end_to_end().as_secs() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_ratio_edge_cases() {
        assert_eq!(speedup_ratio(Seconds::ZERO, Seconds::ZERO), 1.0);
        assert_eq!(
            speedup_ratio(Seconds::new(1.0), Seconds::ZERO),
            f64::INFINITY
        );
        assert!((speedup_ratio(Seconds::new(4.0), Seconds::new(2.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn overlap_reduces_e2e_monotonically() {
        // As f decreases from 1 to 0, e2e must not increase.
        let cpu = Seconds::new(2.0);
        let dep = Seconds::new(5.0);
        let mut last = f64::INFINITY;
        for i in 0..=10 {
            let f = OverlapFactor::new(1.0 - i as f64 / 10.0).unwrap();
            let t = end_to_end_time(cpu, dep, f).as_secs();
            assert!(t <= last + 1e-12);
            last = t;
        }
    }
}
