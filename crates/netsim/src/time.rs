//! Simulation time and rate types.
//!
//! The simulator uses integer nanoseconds ([`SimTime`], [`SimDuration`]) so
//! that event ordering is exact and runs are bit-reproducible under a fixed
//! seed. Link and flow rates are expressed in bits per second ([`Rate`]).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since simulation start.
///
/// # Examples
///
/// ```
/// use pels_netsim::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(30);
/// assert_eq!(t.as_secs_f64(), 0.030);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use pels_netsim::time::SimDuration;
///
/// let d = SimDuration::from_secs_f64(1.5);
/// assert_eq!(d.as_nanos(), 1_500_000_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Creates a time from seconds expressed as a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Returns the time as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the time as (lossy) floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the span from `earlier` to `self`, saturating at zero.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns `self + d`, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from seconds expressed as a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Creates a duration from float seconds, or `None` when `secs` is
    /// negative, not finite, or past the `u64` nanoseconds a duration holds
    /// (about 584 years), which [`SimDuration::from_secs_f64`] clamps to.
    pub fn try_from_secs_f64(secs: f64) -> Option<Self> {
        (secs >= 0.0 && secs * 1e9 < u64::MAX as f64).then(|| Self::from_secs_f64(secs))
    }

    /// Returns the span as integer nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as (lossy) floating-point seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` for a zero-length span.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A data rate in bits per second.
///
/// # Examples
///
/// ```
/// use pels_netsim::time::Rate;
///
/// let bottleneck = Rate::from_mbps(4.0);
/// // A 500-byte packet takes 1 ms to serialize at 4 Mb/s.
/// assert_eq!(bottleneck.tx_time(500).as_nanos(), 1_000_000);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Rate(u64);

impl Rate {
    /// A zero rate (transmits nothing).
    pub const ZERO: Rate = Rate(0);

    /// Creates a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Creates a rate from kilobits per second (SI: 1 kb/s = 1000 b/s).
    pub fn from_kbps(kbps: f64) -> Self {
        assert!(kbps.is_finite() && kbps >= 0.0, "invalid rate: {kbps}");
        Rate((kbps * 1e3).round() as u64)
    }

    /// Creates a rate from megabits per second (SI: 1 Mb/s = 10^6 b/s).
    pub fn from_mbps(mbps: f64) -> Self {
        assert!(mbps.is_finite() && mbps >= 0.0, "invalid rate: {mbps}");
        Rate((mbps * 1e6).round() as u64)
    }

    /// Returns the rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Returns the rate in kilobits per second.
    pub fn as_kbps(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the rate in megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the serialization time of `bytes` at this rate.
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    pub fn tx_time(self, bytes: u32) -> SimDuration {
        assert!(self.0 > 0, "cannot transmit at zero rate");
        let bits = bytes as u64 * 8;
        // The nanosecond numerator fits in u64 for every packet under
        // ~2.3 GB, so the hot path is a native 64-bit division; the u128
        // fallback costs a `__udivti3` libcall per packet.
        match bits.checked_mul(1_000_000_000) {
            Some(numer) => SimDuration(numer / self.0),
            None => SimDuration(((bits as u128 * 1_000_000_000) / self.0 as u128) as u64),
        }
    }

    /// Scales the rate by a non-negative factor.
    ///
    /// # Panics
    ///
    /// Panics if `f` is negative or not finite.
    pub fn scale(self, f: f64) -> Rate {
        assert!(f.is_finite() && f >= 0.0, "invalid scale factor: {f}");
        Rate((self.0 as f64 * f).round() as u64)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3} Mb/s", self.as_mbps())
        } else {
            write!(f, "{:.1} kb/s", self.as_kbps())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!((t - SimTime::from_nanos(30)).as_nanos(), 120);
        assert_eq!(t.duration_since(SimTime::from_nanos(200)), SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_secs_f64(0.002), SimDuration::from_millis(2));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.saturating_mul(u64::MAX).as_nanos(), u64::MAX);
    }

    #[test]
    fn rate_tx_time_paper_constants() {
        // The paper's packets: 500 bytes at a 4 Mb/s bottleneck -> 1 ms.
        assert_eq!(Rate::from_mbps(4.0).tx_time(500), SimDuration::from_millis(1));
        // 10 Mb/s access link -> 0.4 ms.
        assert_eq!(Rate::from_mbps(10.0).tx_time(500), SimDuration::from_micros(400));
    }

    #[test]
    fn rate_conversions() {
        let r = Rate::from_kbps(128.0);
        assert_eq!(r.as_bps(), 128_000);
        assert!((r.as_mbps() - 0.128).abs() < 1e-12);
        assert_eq!(r.scale(0.5).as_bps(), 64_000);
    }

    #[test]
    #[should_panic(expected = "zero rate")]
    fn zero_rate_tx_panics() {
        let _ = Rate::ZERO.tx_time(500);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Rate::from_mbps(4.0)), "4.000 Mb/s");
        assert_eq!(format!("{}", Rate::from_kbps(128.0)), "128.0 kb/s");
        assert_eq!(format!("{}", SimTime::from_secs_f64(0.5)), "0.500000s");
    }
}
