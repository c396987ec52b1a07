//! Accelerator descriptions: speedups, placement, invocation penalties.
//!
//! These types carry the per-component parameters of the analytical model
//! (Figure 7): the acceleration factor `s_sub_i`, the setup time
//! `t_setup_i`, the offload payload `B_i` and the link bandwidth `BW_i`.
//! [`AcceleratorSpec`] evaluates Equations 7–8 over them. Equation 5's
//! `g_sub_i` is not among them: a plan's invocation model sets it.

use std::fmt;

use crate::error::ModelError;
use crate::units::{Bandwidth, Bytes, Seconds};

/// An acceleration factor `s_sub_i >= 1`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Speedup(f64);

impl Speedup {
    /// No acceleration (`1x`).
    pub const UNITY: Speedup = Speedup(1.0);

    /// Creates a speedup factor.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpeedup`] unless `factor` is finite and
    /// at least 1.
    pub fn new(factor: f64) -> Result<Self, ModelError> {
        if factor.is_finite() && factor >= 1.0 {
            Ok(Speedup(factor))
        } else {
            Err(ModelError::InvalidSpeedup { value: factor })
        }
    }

    /// Applies the speedup to an original component time (`t_sub / s_sub`).
    #[must_use]
    pub fn apply(self, original: Seconds) -> Seconds {
        original / self.0
    }
}

impl Default for Speedup {
    fn default() -> Self {
        Speedup::UNITY
    }
}

impl fmt::Display for Speedup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}x", self.0)
    }
}

/// Where an accelerator sits relative to the core (Section 6.1).
///
/// On-chip shared-memory-coherent accelerators see the data in cache/DRAM, so
/// the offload payload `B_i` is treated as 0; off-chip accelerators pay
/// `2 * B_i / BW_i` to round-trip the payload over the link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Placement {
    /// Shared-memory-coherent accelerator; no offload data movement.
    OnChip,
    /// Uncached accelerator across a link with the given bandwidth.
    OffChip {
        /// Link bandwidth `BW_i` (e.g. PCIe Gen5 at 4 GB/s in the paper).
        link: Bandwidth,
    },
}

impl Placement {
    /// Off-chip over the link the paper assumes (PCIe Gen5, 4 GB/s).
    #[must_use]
    pub fn off_chip_pcie_gen5() -> Placement {
        Placement::OffChip {
            link: Bandwidth::from_gb_per_sec(4.0),
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::OnChip => write!(f, "On-Chip"),
            Placement::OffChip { link } => write!(f, "Off-Chip({link})"),
        }
    }
}

/// Full description of one accelerator assigned to one CPU component.
///
/// Combines the acceleration factor with the invocation penalty parameters of
/// Equations 7–8. Equation 5's `g_sub_i` is not a property of one
/// accelerator: the plan's invocation model sets it.
///
/// # Examples
///
/// ```
/// use hsdp_core::accel::{AcceleratorSpec, Placement, Speedup};
/// use hsdp_core::units::{Bytes, Seconds};
///
/// let spec = AcceleratorSpec::ideal(Speedup::new(8.0)?)
///     .with_setup(Seconds::from_micros(1.0))
///     .with_placement(Placement::off_chip_pcie_gen5())
///     .with_payload(Bytes::from_kib(64.0));
/// // t'_sub = t_sub / s_sub + t_pen
/// let accelerated = spec.accelerated_time(Seconds::from_millis(1.0));
/// assert!(accelerated.as_secs() < 1e-3);
/// # Ok::<(), hsdp_core::error::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorSpec {
    speedup: Speedup,
    setup: Seconds,
    payload: Bytes,
    placement: Placement,
}

impl AcceleratorSpec {
    /// An ideal on-chip accelerator with no penalties: zero setup and
    /// payload. The `with_*` methods configure the rest.
    #[must_use]
    pub fn ideal(speedup: Speedup) -> AcceleratorSpec {
        AcceleratorSpec {
            speedup,
            setup: Seconds::ZERO,
            payload: Bytes::ZERO,
            placement: Placement::OnChip,
        }
    }

    /// The invocation penalty `t_pen_i = t_setup_i + 2 * B_i / BW_i`
    /// (Equation 8). On-chip placement contributes no transfer term.
    #[must_use]
    pub fn penalty(&self) -> Seconds {
        match self.placement {
            Placement::OnChip => self.setup,
            Placement::OffChip { link } => {
                self.setup + link.transfer_time(self.payload).scaled(2.0)
            }
        }
    }

    /// The accelerated component time
    /// `t'_sub_i = t_sub_i / s_sub_i + t_pen_i` (Equation 7).
    #[must_use]
    pub fn accelerated_time(&self, original: Seconds) -> Seconds {
        self.speedup.apply(original) + self.penalty()
    }

    /// The accelerated component time *without* the penalty
    /// (`t_sub_i / s_sub_i`), used by the chained model (Equation 12).
    #[must_use]
    pub fn accelerated_time_no_penalty(&self, original: Seconds) -> Seconds {
        self.speedup.apply(original)
    }

    /// Returns a copy with a different placement.
    #[must_use]
    pub fn with_placement(mut self, placement: Placement) -> AcceleratorSpec {
        self.placement = placement;
        self
    }

    /// Returns a copy with a different setup time.
    #[must_use]
    pub fn with_setup(mut self, setup: Seconds) -> AcceleratorSpec {
        self.setup = setup;
        self
    }

    /// Returns a copy with a different offload payload.
    #[must_use]
    pub fn with_payload(mut self, payload: Bytes) -> AcceleratorSpec {
        self.payload = payload;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_bounds() {
        assert!(Speedup::new(1.0).is_ok());
        assert!(Speedup::new(64.0).is_ok());
        assert!(Speedup::new(0.99).is_err());
        assert!(Speedup::new(f64::INFINITY).is_err());
    }

    #[test]
    fn speedup_apply() {
        let s = Speedup::new(4.0).unwrap();
        assert!((s.apply(Seconds::new(8.0)).as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn on_chip_penalty_is_setup_only() {
        // Equation 8 with B_i = 0: t_pen = t_setup.
        let spec = AcceleratorSpec::ideal(Speedup::new(8.0).unwrap())
            .with_setup(Seconds::from_micros(3.0))
            .with_payload(Bytes::from_gib(0.1)); // ignored on-chip
        assert!((spec.penalty().as_micros() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn off_chip_penalty_includes_round_trip() {
        // 4 GB/s link, 4 GB payload: 2 * B/BW = 2 seconds.
        let spec = AcceleratorSpec::ideal(Speedup::new(8.0).unwrap())
            .with_setup(Seconds::new(0.5))
            .with_payload(Bytes::new(4e9))
            .with_placement(Placement::off_chip_pcie_gen5());
        assert!((spec.penalty().as_secs() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn accelerated_time_is_eq7() {
        let spec =
            AcceleratorSpec::ideal(Speedup::new(10.0).unwrap()).with_setup(Seconds::new(0.1));
        let t = spec.accelerated_time(Seconds::new(1.0));
        assert!((t.as_secs() - 0.2).abs() < 1e-12);
        let t_np = spec.accelerated_time_no_penalty(Seconds::new(1.0));
        assert!((t_np.as_secs() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn ideal_spec_has_no_penalty() {
        let spec = AcceleratorSpec::ideal(Speedup::new(64.0).unwrap());
        assert!(spec.penalty().is_zero());
        assert_eq!(spec.placement, Placement::OnChip);
    }

    #[test]
    fn with_methods_update_fields() {
        let spec = AcceleratorSpec::ideal(Speedup::new(2.0).unwrap())
            .with_setup(Seconds::new(1.0))
            .with_payload(Bytes::new(8.0))
            .with_placement(Placement::off_chip_pcie_gen5());
        assert_eq!(spec.setup, Seconds::new(1.0));
        assert_eq!(spec.payload, Bytes::new(8.0));
        assert_eq!(spec.speedup, Speedup::new(2.0).unwrap());
        assert_eq!(spec.placement, Placement::off_chip_pcie_gen5());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Speedup::new(8.0).unwrap().to_string(), "8.0x");
        assert_eq!(Placement::OnChip.to_string(), "On-Chip");
    }
}
