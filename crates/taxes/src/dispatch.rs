//! Runtime CPU-capability detection for the CRC32C fast path.
//!
//! CRC32C is the one tax kernel with two shipped tiers: the hardware `crc32`
//! instruction (SSE4.2 on x86-64, the CRC extension on aarch64) and the
//! portable slicing-by-8 loop. This module performs **one-time** feature
//! detection, and the CRC entry point reads the cached features on each
//! update to pick the kernel it calls. The other kernels have a single
//! implementation each: their SIMD tiers did not pay for themselves on the
//! inputs a fleet run feeds them and were deleted (DESIGN.md, "One
//! implementation per kernel").
//!
//! Detection runs once per process via [`CpuFeatures::get`] and is cached in
//! a `OnceLock`, so the steady-state dispatch cost is one read of the cached
//! features before a direct call into the chosen kernel.
//!
//! ## Forcing the scalar path
//!
//! Setting the environment variable `HSDP_FORCE_SCALAR` to any value other
//! than `0` or the empty string makes detection report no capabilities, so
//! CRC32C resolves to slicing-by-8. CI runs the test and equivalence suites
//! both natively and under `HSDP_FORCE_SCALAR=1`; because both tiers are
//! byte-identical, all determinism and telemetry artifacts are unchanged
//! either way.

use std::sync::OnceLock;

/// The instruction-set capabilities that select a kernel implementation.
///
/// Detected once per process; all fields are `false` when the scalar path
/// is forced via `HSDP_FORCE_SCALAR` or on architectures without a fast
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// The scalar override (`HSDP_FORCE_SCALAR`) was active at detection.
    pub forced_scalar: bool,
    /// x86-64 SSE4.2: the `crc32` instruction (hardware CRC32C).
    pub sse42: bool,
    /// aarch64 CRC extension: the `crc32c*` instructions.
    pub aarch64_crc: bool,
}

impl CpuFeatures {
    /// A feature set with nothing enabled (the scalar-only profile).
    const fn none(forced_scalar: bool) -> Self {
        CpuFeatures {
            forced_scalar,
            sse42: false,
            aarch64_crc: false,
        }
    }

    /// The process-wide detected feature set (detection runs on first call).
    #[inline]
    pub fn get() -> &'static Self {
        static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
        FEATURES.get_or_init(Self::detect)
    }

    /// Performs detection: the env override first, then the host ISA.
    ///
    /// Reading `HSDP_FORCE_SCALAR` is an ambient input, but it only selects
    /// *which* byte-identical implementation runs — outputs are invariant.
    fn detect() -> Self {
        if force_scalar_requested() {
            return Self::none(true);
        }
        Self::detect_isa()
    }

    #[cfg(target_arch = "x86_64")]
    fn detect_isa() -> Self {
        CpuFeatures {
            forced_scalar: false,
            sse42: std::arch::is_x86_feature_detected!("sse4.2"),
            aarch64_crc: false,
        }
    }

    #[cfg(target_arch = "aarch64")]
    fn detect_isa() -> Self {
        CpuFeatures {
            forced_scalar: false,
            sse42: false,
            aarch64_crc: std::arch::is_aarch64_feature_detected!("crc"),
        }
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn detect_isa() -> Self {
        Self::none(false)
    }

    /// A compact summary for bench reports and log headers: `"sse4.2"`,
    /// `"aarch64-crc"`, `"scalar(forced)"`, or `"scalar"`.
    #[must_use]
    pub fn summary(&self) -> String {
        let summary = if self.forced_scalar {
            "scalar(forced)"
        } else if self.sse42 {
            "sse4.2"
        } else if self.aarch64_crc {
            "aarch64-crc"
        } else {
            "scalar"
        };
        summary.to_owned()
    }
}

/// True when `HSDP_FORCE_SCALAR` requests the scalar path.
///
/// Any value other than unset, empty, or `0` counts as a request, so both
/// `HSDP_FORCE_SCALAR=1` and `HSDP_FORCE_SCALAR=yes` work.
#[must_use]
pub fn force_scalar_requested() -> bool {
    match std::env::var_os("HSDP_FORCE_SCALAR") {
        Some(v) => !v.is_empty() && v != "0",
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_across_calls() {
        assert_eq!(CpuFeatures::get(), CpuFeatures::get());
    }

    #[test]
    fn summary_shapes() {
        assert_eq!(CpuFeatures::none(true).summary(), "scalar(forced)");
        assert_eq!(CpuFeatures::none(false).summary(), "scalar");
        let x86 = CpuFeatures {
            sse42: true,
            ..CpuFeatures::none(false)
        };
        assert_eq!(x86.summary(), "sse4.2");
        let arm = CpuFeatures {
            aarch64_crc: true,
            ..CpuFeatures::none(false)
        };
        assert_eq!(arm.summary(), "aarch64-crc");
    }

    #[test]
    fn forced_scalar_reports_no_capabilities() {
        let forced = CpuFeatures::none(true);
        assert!(forced.forced_scalar);
        assert!(!forced.sse42 && !forced.aarch64_crc);
    }
}
