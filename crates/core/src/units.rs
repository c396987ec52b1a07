//! Physical-quantity newtypes used throughout the model.
//!
//! The analytical model of the paper (Figure 7) mixes times, byte counts and
//! bandwidths; newtypes keep them from being confused ([C-NEWTYPE]).
//!
//! All quantities are non-negative by construction: the checked constructors
//! return an error for negative or non-finite input, and arithmetic is
//! saturating at zero for subtraction.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::error::ModelError;

/// A span of time in seconds.
///
/// # Examples
///
/// ```
/// use hsdp_core::units::Seconds;
/// let t = Seconds::from_micros(518.3);
/// assert!((t.as_secs() - 518.3e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// Zero seconds.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a time span, panicking on negative or non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN or infinite. Use [`Seconds::try_new`]
    /// for fallible construction.
    #[must_use]
    pub fn new(secs: f64) -> Self {
        // audit: allow(panic, documented panic contract; try_new is the fallible form)
        Self::try_new(secs).expect("Seconds::new requires a finite, non-negative value")
    }

    /// Creates a time span, validating the input.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] if `secs` is negative, NaN or
    /// infinite.
    pub fn try_new(secs: f64) -> Result<Self, ModelError> {
        if secs.is_finite() && secs >= 0.0 {
            Ok(Seconds(secs))
        } else {
            Err(ModelError::InvalidQuantity {
                quantity: "Seconds",
                value: secs,
            })
        }
    }

    /// Creates a time span from microseconds.
    #[must_use]
    pub fn from_micros(us: f64) -> Self {
        Seconds::new(us * 1e-6)
    }

    /// Creates a time span from milliseconds.
    #[must_use]
    pub fn from_millis(ms: f64) -> Self {
        Seconds::new(ms * 1e-3)
    }

    /// Creates a time span from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: f64) -> Self {
        Seconds::new(ns * 1e-9)
    }

    /// The value in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The value in microseconds.
    #[must_use]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the smaller of two time spans.
    #[must_use]
    pub fn min(self, other: Seconds) -> Seconds {
        Seconds(self.0.min(other.0))
    }

    /// Returns the larger of two time spans.
    #[must_use]
    pub fn max(self, other: Seconds) -> Seconds {
        Seconds(self.0.max(other.0))
    }

    /// True if the span is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Scales the span by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Seconds {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Seconds(self.0 * factor)
    }

    /// The ratio `self / other`, or `None` when `other` is zero.
    #[must_use]
    pub fn ratio(self, other: Seconds) -> Option<f64> {
        if other.is_zero() {
            None
        } else {
            Some(self.0 / other.0)
        }
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    /// Saturating subtraction: never goes below zero.
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        self.scaled(rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    /// # Panics
    ///
    /// Panics when dividing by zero or a negative/non-finite divisor.
    fn div(self, rhs: f64) -> Seconds {
        assert!(
            rhs.is_finite() && rhs > 0.0,
            "Seconds division requires a positive finite divisor, got {rhs}"
        );
        Seconds(self.0 / rhs)
    }
}

impl Sum for Seconds {
    fn sum<I: Iterator<Item = Seconds>>(iter: I) -> Seconds {
        iter.fold(Seconds::ZERO, Add::add)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == 0.0 {
            write!(f, "0s")
        } else if self.0 < 1e-6 {
            write!(f, "{:.1}ns", self.0 * 1e9)
        } else if self.0 < 1e-3 {
            write!(f, "{:.1}us", self.0 * 1e6)
        } else if self.0 < 1.0 {
            write!(f, "{:.1}ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3}s", self.0)
        }
    }
}

/// A number of bytes (the `B_i` offload payload in Equation 8).
///
/// # Examples
///
/// ```
/// use hsdp_core::units::{Bytes, Bandwidth};
/// let payload = Bytes::from_kib(64.0);
/// let link = Bandwidth::from_gb_per_sec(4.0);
/// let t = link.transfer_time(payload);
/// assert!(t.as_secs() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bytes(f64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0.0);

    /// Creates a byte count, panicking on negative or non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative, NaN or infinite.
    #[must_use]
    pub fn new(bytes: f64) -> Self {
        // audit: allow(panic, documented panic contract; try_new is the fallible form)
        Self::try_new(bytes).expect("Bytes::new requires a finite, non-negative value")
    }

    /// Creates a byte count, validating the input.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] on negative or non-finite input.
    pub fn try_new(bytes: f64) -> Result<Self, ModelError> {
        if bytes.is_finite() && bytes >= 0.0 {
            Ok(Bytes(bytes))
        } else {
            Err(ModelError::InvalidQuantity {
                quantity: "Bytes",
                value: bytes,
            })
        }
    }

    /// Creates a byte count from KiB.
    #[must_use]
    pub fn from_kib(kib: f64) -> Self {
        Bytes::new(kib * 1024.0)
    }

    /// Creates a byte count from GiB.
    #[must_use]
    pub fn from_gib(gib: f64) -> Self {
        Bytes::new(gib * 1024.0 * 1024.0 * 1024.0)
    }

    /// The raw byte count.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// True if the count is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// The ratio `self / other`, or `None` when `other` is zero.
    #[must_use]
    pub fn ratio(self, other: Bytes) -> Option<f64> {
        if other.is_zero() {
            None
        } else {
            Some(self.0 / other.0)
        }
    }

    /// Scales the count by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scaled(self, factor: f64) -> Bytes {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "scale factor must be finite and non-negative, got {factor}"
        );
        Bytes(self.0 * factor)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [(&str, f64); 5] = [
            ("PiB", 1024f64 * 1024.0 * 1024.0 * 1024.0 * 1024.0),
            ("TiB", 1024f64 * 1024.0 * 1024.0 * 1024.0),
            ("GiB", 1024f64 * 1024.0 * 1024.0),
            ("MiB", 1024f64 * 1024.0),
            ("KiB", 1024f64),
        ];
        for (name, scale) in UNITS {
            if self.0 >= scale {
                return write!(f, "{:.2}{name}", self.0 / scale);
            }
        }
        write!(f, "{:.0}B", self.0)
    }
}

/// A link bandwidth (the `BW_i` of Equation 8), in bytes per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth, panicking on non-positive or non-finite input.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not a positive finite number; a link with
    /// zero bandwidth would make Equation 8 undefined.
    #[must_use]
    pub fn new(bytes_per_sec: f64) -> Self {
        Self::try_new(bytes_per_sec)
            // audit: allow(panic, documented panic contract; try_new is the fallible form)
            .expect("Bandwidth::new requires a positive, finite value")
    }

    /// Creates a bandwidth, validating the input.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidQuantity`] unless `bytes_per_sec` is
    /// positive and finite.
    pub fn try_new(bytes_per_sec: f64) -> Result<Self, ModelError> {
        if bytes_per_sec.is_finite() && bytes_per_sec > 0.0 {
            Ok(Bandwidth(bytes_per_sec))
        } else {
            Err(ModelError::InvalidQuantity {
                quantity: "Bandwidth",
                value: bytes_per_sec,
            })
        }
    }

    /// Creates a bandwidth from GB/s (decimal, as in "PCIe Gen5 4GB/s").
    #[must_use]
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Bandwidth::new(gb * 1e9)
    }

    /// Time to move `payload` across this link once (`B / BW`).
    #[must_use]
    pub fn transfer_time(self, payload: Bytes) -> Seconds {
        Seconds::new(payload.as_f64() / self.0)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}GB/s", self.0 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_constructors_and_accessors() {
        assert_eq!(Seconds::from_micros(1.0).as_secs(), 1e-6);
        assert_eq!(Seconds::from_millis(1.0).as_secs(), 1e-3);
        assert_eq!(Seconds::from_nanos(1.0).as_secs(), 1e-9);
        assert_eq!(Seconds::new(2.0).as_micros(), 2e6);
    }

    #[test]
    fn seconds_rejects_invalid() {
        assert!(Seconds::try_new(-1.0).is_err());
        assert!(Seconds::try_new(f64::NAN).is_err());
        assert!(Seconds::try_new(f64::INFINITY).is_err());
        assert!(Seconds::try_new(0.0).is_ok());
    }

    #[test]
    fn seconds_sub_saturates_at_zero() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!((a - b).as_secs(), 0.0);
        assert_eq!((b - a).as_secs(), 1.0);
    }

    #[test]
    fn seconds_min_max_sum() {
        let a = Seconds::new(1.0);
        let b = Seconds::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: Seconds = [a, b].into_iter().sum();
        assert_eq!(total.as_secs(), 3.0);
    }

    #[test]
    fn seconds_ratio() {
        assert_eq!(Seconds::new(4.0).ratio(Seconds::new(2.0)), Some(2.0));
        assert_eq!(Seconds::new(4.0).ratio(Seconds::ZERO), None);
    }

    #[test]
    fn seconds_display_picks_unit() {
        assert_eq!(Seconds::ZERO.to_string(), "0s");
        assert_eq!(Seconds::from_nanos(5.0).to_string(), "5.0ns");
        assert_eq!(Seconds::from_micros(5.0).to_string(), "5.0us");
        assert_eq!(Seconds::from_millis(5.0).to_string(), "5.0ms");
        assert_eq!(Seconds::new(5.0).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "finite, non-negative")]
    fn seconds_new_panics_on_negative() {
        let _ = Seconds::new(-0.5);
    }

    #[test]
    fn bytes_units_and_ratio() {
        assert_eq!(Bytes::from_kib(1.0).as_f64(), 1024.0);
        assert_eq!(Bytes::from_gib(1.0).as_f64(), 1024f64.powi(3));
        assert_eq!(Bytes::from_kib(2.0).ratio(Bytes::from_kib(1.0)), Some(2.0));
        assert_eq!(Bytes::from_kib(2.0).ratio(Bytes::ZERO), None);
    }

    #[test]
    fn bytes_display() {
        assert_eq!(Bytes::new(10.0).to_string(), "10B");
        assert_eq!(Bytes::from_kib(1.5).to_string(), "1.50KiB");
        assert_eq!(Bytes::new(2.0 * 1024f64.powi(5)).to_string(), "2.00PiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::from_gb_per_sec(4.0);
        let t = bw.transfer_time(Bytes::new(4e9));
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_rejects_zero() {
        assert!(Bandwidth::try_new(0.0).is_err());
        assert!(Bandwidth::try_new(-1.0).is_err());
        assert!(Bandwidth::try_new(1.0).is_ok());
    }

    #[test]
    fn send_sync_impls() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Seconds>();
        assert_send_sync::<Bytes>();
        assert_send_sync::<Bandwidth>();
    }
}
