//! The chained-acceleration extension (Equations 9–12, Figure 11).
//!
//! When consecutive operations are known to be linked, their accelerators can
//! be *chained*: each accelerator streams results to the next without
//! returning to the core. The chain is pipelined, so its steady-state time is
//! bounded by its slowest stage; the one-time fill cost is bounded by the
//! largest single penalty:
//!
//! ```text
//! t_chnd   = t_lpen + t_lsubnp                       (Eq. 10)
//! t_lpen   = max(t_pen_i)          over chained i    (Eq. 11)
//! t_lsubnp = max(t_sub_i / s_sub_i) over chained i   (Eq. 12)
//! ```

use crate::accel::AcceleratorSpec;
use crate::category::CpuCategory;
use crate::error::ModelError;
use crate::units::Seconds;

/// One stage of an accelerator chain: a component's original time plus the
/// accelerator that will process it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainStage {
    /// Which CPU component this stage accelerates.
    pub category: CpuCategory,
    /// Original (unaccelerated) component time `t_sub_i`.
    pub original: Seconds,
    /// The accelerator assigned to this stage.
    pub spec: AcceleratorSpec,
}

/// The result of evaluating Equations 10–12 over a chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainEstimate {
    /// `t_lpen`: the largest single accelerator penalty (Eq. 11).
    pub largest_penalty: Seconds,
    /// `t_lsubnp`: the slowest stage's penalty-free time (Eq. 12).
    pub largest_stage: Seconds,
    /// `t_chnd = t_lpen + t_lsubnp` (Eq. 10).
    pub chained_time: Seconds,
}

/// Evaluates the chained-execution time for a set of stages.
///
/// # Errors
///
/// Returns [`ModelError::EmptyChain`] if `stages` is empty — a chain needs at
/// least one stage for Equations 11–12 to be defined.
///
/// # Examples
///
/// ```
/// use hsdp_core::accel::{AcceleratorSpec, Speedup};
/// use hsdp_core::category::{CpuCategory, DatacenterTax};
/// use hsdp_core::chained::{chain_estimate, ChainStage};
/// use hsdp_core::units::Seconds;
///
/// let stages = [
///     ChainStage {
///         category: CpuCategory::from(DatacenterTax::Protobuf),
///         original: Seconds::from_micros(518.3),
///         spec: AcceleratorSpec::ideal(Speedup::new(31.0)?),
///     },
///     ChainStage {
///         category: CpuCategory::from(DatacenterTax::Cryptography),
///         original: Seconds::from_micros(1112.5),
///         spec: AcceleratorSpec::ideal(Speedup::new(51.3)?),
///     },
/// ];
/// let est = chain_estimate(&stages)?;
/// // The SHA3 stage (1112.5us / 51.3x) dominates the pipeline.
/// assert!((est.largest_stage.as_micros() - 1112.5 / 51.3).abs() < 1e-6);
/// # Ok::<(), hsdp_core::error::ModelError>(())
/// ```
pub fn chain_estimate(stages: &[ChainStage]) -> Result<ChainEstimate, ModelError> {
    if stages.is_empty() {
        return Err(ModelError::EmptyChain);
    }
    let largest_penalty = stages
        .iter()
        .map(|s| s.spec.penalty())
        .fold(Seconds::ZERO, Seconds::max);
    let largest_stage = stages
        .iter()
        .map(|s| s.spec.accelerated_time_no_penalty(s.original))
        .fold(Seconds::ZERO, Seconds::max);
    Ok(ChainEstimate {
        largest_penalty,
        largest_stage,
        chained_time: largest_penalty + largest_stage,
    })
}

/// An alternative, more pessimistic chain estimate that *sums* the stage
/// penalties instead of taking their maximum (Eq. 11).
///
/// This is the ablation DESIGN.md calls out: Equation 11 assumes all stage
/// setups can proceed concurrently while the pipeline fills; summing models a
/// serial setup of each stage. Comparing both against a measured pipeline
/// shows which assumption holds.
///
/// # Errors
///
/// Returns [`ModelError::EmptyChain`] if `stages` is empty.
pub fn chain_estimate_summed_penalties(stages: &[ChainStage]) -> Result<ChainEstimate, ModelError> {
    if stages.is_empty() {
        return Err(ModelError::EmptyChain);
    }
    let summed_penalty: Seconds = stages.iter().map(|s| s.spec.penalty()).sum();
    let largest_stage = stages
        .iter()
        .map(|s| s.spec.accelerated_time_no_penalty(s.original))
        .fold(Seconds::ZERO, Seconds::max);
    Ok(ChainEstimate {
        largest_penalty: summed_penalty,
        largest_stage,
        chained_time: summed_penalty + largest_stage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accel::Speedup;
    use crate::category::DatacenterTax;
    use crate::units::Bytes;

    fn stage(original_us: f64, speedup: f64, setup_us: f64) -> ChainStage {
        ChainStage {
            category: CpuCategory::from(DatacenterTax::Protobuf),
            original: Seconds::from_micros(original_us),
            spec: AcceleratorSpec::ideal(Speedup::new(speedup).unwrap())
                .with_setup(Seconds::from_micros(setup_us)),
        }
    }

    use crate::category::CpuCategory;

    #[test]
    fn empty_chain_is_an_error() {
        assert_eq!(chain_estimate(&[]).unwrap_err(), ModelError::EmptyChain);
        assert_eq!(
            chain_estimate_summed_penalties(&[]).unwrap_err(),
            ModelError::EmptyChain
        );
    }

    #[test]
    fn single_stage_chain_is_its_own_bound() {
        let s = stage(100.0, 10.0, 5.0);
        let est = chain_estimate(&[s]).unwrap();
        assert!((est.chained_time.as_micros() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn slowest_stage_dominates() {
        // Stage A: 100us/10x = 10us; stage B: 400us/10x = 40us.
        let est = chain_estimate(&[stage(100.0, 10.0, 0.0), stage(400.0, 10.0, 0.0)]).unwrap();
        assert!((est.largest_stage.as_micros() - 40.0).abs() < 1e-9);
        assert!((est.chained_time.as_micros() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn largest_penalty_bounds_fill_cost() {
        let est = chain_estimate(&[stage(100.0, 10.0, 3.0), stage(100.0, 10.0, 7.0)]).unwrap();
        assert!((est.largest_penalty.as_micros() - 7.0).abs() < 1e-9);
        assert!((est.chained_time.as_micros() - 17.0).abs() < 1e-9);
    }

    #[test]
    fn summed_variant_is_at_least_max_variant() {
        let stages = [stage(100.0, 10.0, 3.0), stage(100.0, 10.0, 7.0)];
        let max_est = chain_estimate(&stages).unwrap();
        let sum_est = chain_estimate_summed_penalties(&stages).unwrap();
        assert!(sum_est.chained_time >= max_est.chained_time);
        assert!((sum_est.largest_penalty.as_micros() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn off_chip_stage_penalty_feeds_eq11() {
        let mut s = stage(100.0, 10.0, 1.0);
        s.spec = s
            .spec
            .with_placement(crate::accel::Placement::off_chip_pcie_gen5())
            .with_payload(Bytes::new(4e9));
        let est = chain_estimate(&[s]).unwrap();
        // 2 * 4e9 / 4e9 = 2s dominates the 1us setup.
        assert!(est.largest_penalty.as_secs() > 1.9);
    }

    #[test]
    fn paper_table8_shape() {
        // Reproduces the arithmetic of Table 8: serialization 518.3us at 31x
        // with 1488.9us setup; SHA3 1112.5us at 51.3x with 4.1us setup.
        let est = chain_estimate(&crate::paper::table8_stages()).unwrap();
        // t_lpen = 1488.9us (protobuf setup), t_lsubnp = 1112.5/51.3 = 21.7us.
        assert!((est.largest_penalty.as_micros() - 1488.9).abs() < 1e-6);
        assert!((est.largest_stage.as_micros() - 21.686).abs() < 0.01);
        assert!((est.chained_time.as_micros() - 1510.6).abs() < 0.1);
    }
}
