//! The base analytical model: end-to-end time from CPU and non-CPU phases
//! (Equations 1–2 of Figure 7).
//!
//! A query's execution is summarized by [`QueryPhases`]: CPU time `t_cpu`
//! and non-CPU dependency time `t_dep` (distributed storage IO and remote
//! work). Equation 1 composes them ([`end_to_end_time`]); Equation 2 does
//! the same with the accelerated CPU time `t'_cpu`
//! ([`accelerated_end_to_end_time`]).

use crate::units::Seconds;

/// The coarse phases of one query (or one aggregated query class).
///
/// # Examples
///
/// ```
/// use hsdp_core::model::QueryPhases;
/// use hsdp_core::units::Seconds;
///
/// // Disjoint CPU and IO: e2e is the plain sum.
/// let q = QueryPhases::new(Seconds::new(2.0), Seconds::new(3.0));
/// assert!((q.end_to_end().as_secs() - 5.0).abs() < 1e-12);
/// ```
///
/// These are the inputs `t_cpu` and `t_dep` of Equation 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryPhases {
    cpu: Seconds,
    dep: Seconds,
}

impl QueryPhases {
    /// Creates phases from CPU time and non-CPU dependency time — the inputs
    /// of Equation 1.
    #[must_use]
    pub fn new(cpu: Seconds, dep: Seconds) -> Self {
        QueryPhases { cpu, dep }
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

    /// End-to-end time per Equation 1.
    #[must_use]
    pub fn end_to_end(&self) -> Seconds {
        end_to_end_time(self.cpu, self.dep)
    }

    /// Phases with the non-CPU dependencies removed — the paper's
    /// software-hardware co-design scenario ("Without Remote Work & IO",
    /// Figures 9–10).
    #[must_use]
    pub fn without_dependencies(&self) -> QueryPhases {
        QueryPhases::new(self.cpu, Seconds::ZERO)
    }
}

/// Equation 1, `t_e2e = t_cpu + t_dep - (1 - f) * min(t_cpu, t_dep)`, at
/// `f = 1`: `t_e2e = t_cpu + t_dep`.
///
/// The synchronization factor `f` is 1 on every population the limit
/// studies run on, so the model keeps none. The paper's trace attribution
/// (Section 4.1) charges overlapped time to remote work first, then IO, then
/// CPU, which leaves the phases disjoint: nothing is left for
/// `(1 - f) * min(t_cpu, t_dep)` to hide. The calibrated populations of
/// [`crate::paper`] and the ones measured from simulated traces are both
/// built from such phases.
#[must_use]
pub fn end_to_end_time(cpu: Seconds, dep: Seconds) -> Seconds {
    let e2e = cpu + dep;
    debug_assert!(
        crate::audit::e2e_within_bounds(cpu, dep, e2e),
        "Eq. 1 result {e2e:?} escapes [max(t_cpu, t_dep), t_cpu + t_dep] \
         for cpu={cpu:?} dep={dep:?}"
    );
    e2e
}

/// Equation 2: end-to-end time with the CPU term replaced by its accelerated
/// estimate `t'_cpu`, holding `t_dep` fixed.
#[must_use]
pub fn accelerated_end_to_end_time(accelerated_cpu: Seconds, phases: &QueryPhases) -> Seconds {
    end_to_end_time(accelerated_cpu, phases.dep())
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

    #[test]
    fn eq1_synchronous_is_sum() {
        let t = end_to_end_time(Seconds::new(2.0), Seconds::new(3.0));
        assert!((t.as_secs() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_substitutes_cpu() {
        let q = QueryPhases::new(Seconds::new(4.0), Seconds::new(1.0));
        let t = accelerated_end_to_end_time(Seconds::new(1.0), &q);
        assert!((t.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn without_dependencies_zeroes_dep() {
        let q = QueryPhases::new(Seconds::new(4.0), Seconds::new(10.0));
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
}
