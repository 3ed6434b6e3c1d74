//! A TFRC-style equation-based rate controller.
//!
//! The paper (Section 5) discusses TFRC [9] as the standard smooth
//! congestion control for multimedia, but notes that such schemes "often do
//! not have stationary points in the operating range of typical
//! applications and continuously oscillate" [34]. This simplified
//! implementation — the TCP throughput equation driven by an EWMA
//! loss-event estimate — lets the harness measure that claim against MKC
//! under identical PELS queues.
//!
//! `r = s / (R·sqrt(2p/3) + t_RTO·(3·sqrt(3p/8))·p·(1 + 32p²))`
//!
//! with `s` the packet size, `R` the RTT estimate and `t_RTO = 4R`. The
//! rate starts, floors and caps where MKC's does by default
//! ([`INITIAL_RATE`], [`MIN_RATE`], [`MAX_RATE`]).

use crate::mkc::{INITIAL_RATE, MAX_RATE, MIN_RATE};
use crate::scenario::VIDEO_PACKET_BYTES;
use serde::{Deserialize, Serialize};

/// Round-trip time estimate, seconds (static in this model; the
/// simulator's dumbbell RTT is ~15 ms plus queueing).
const RTT_S: f64 = 0.03;
/// EWMA weight of new loss samples in the loss-event estimate.
const LOSS_SMOOTHING: f64 = 0.1;

/// The TFRC-like controller.
///
/// # Examples
///
/// ```
/// use pels_core::tfrc::TfrcController;
///
/// let mut t = TfrcController::default();
/// for _ in 0..200 { t.update(0.02); }
/// // The TCP equation at p ~ 2%, RTT 30 ms, 500 B packets: ~ 750 kb/s.
/// let r = t.rate_bps();
/// assert!((500_000.0..1_100_000.0).contains(&r), "rate {r}");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TfrcController {
    rate_bps: f64,
    loss_avg: f64,
    updates: u64,
}

impl Default for TfrcController {
    fn default() -> Self {
        TfrcController { rate_bps: INITIAL_RATE.as_bps() as f64, loss_avg: 0.0, updates: 0 }
    }
}

impl TfrcController {
    /// Current rate, bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// The TCP throughput equation in bits/s at loss-event rate `p`, for
    /// the paper's 500-byte video packets.
    fn equation(&self, p: f64) -> f64 {
        let s = f64::from(VIDEO_PACKET_BYTES) * 8.0;
        let r = RTT_S;
        let t_rto = 4.0 * r;
        let denom = r * (2.0 * p / 3.0).sqrt()
            + t_rto * 3.0 * (3.0 * p / 8.0).sqrt() * p * (1.0 + 32.0 * p * p);
        s / denom
    }

    /// Applies one control step with (signed) feedback `p`. Negative
    /// feedback counts as a loss-free interval, which decays the loss
    /// estimate; the rate then grows at most doubling per RTT-worth of
    /// updates, TFRC-style.
    pub fn update(&mut self, p: f64) -> f64 {
        let sample = if p.is_finite() { p.max(0.0) } else { 0.0 };
        let a = LOSS_SMOOTHING;
        self.loss_avg = (1.0 - a) * self.loss_avg + a * sample;
        let target = if self.loss_avg > 1e-6 {
            self.equation(self.loss_avg)
        } else {
            self.rate_bps * 2.0 // no loss history: multiplicative probe
        };
        // Rate moves toward the equation value, capped at doubling.
        let next = target.min(self.rate_bps * 2.0).max(self.rate_bps * 0.2);
        self.rate_bps = next.clamp(MIN_RATE.as_bps() as f64, MAX_RATE.as_bps() as f64);
        self.updates += 1;
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_scales_inverse_sqrt_p() {
        let t = TfrcController::default();
        let r1 = t.equation(0.01);
        let r4 = t.equation(0.04);
        // rate ~ 1/sqrt(p) plus an RTO term that grows with p: the ratio
        // for 4x loss sits between the ideal 2x and ~3x.
        assert!((2.0..3.0).contains(&(r1 / r4)), "ratio {}", r1 / r4);
    }

    #[test]
    fn no_loss_doubles_until_cap() {
        let mut t = TfrcController::default();
        for _ in 0..20 {
            t.update(0.0);
        }
        assert_eq!(t.rate_bps(), 10_000_000.0);
    }

    #[test]
    fn loss_brings_rate_to_equation_value() {
        let mut t = TfrcController::default();
        for _ in 0..300 {
            t.update(0.05);
        }
        let expect = t.equation(0.05);
        assert!((t.rate_bps() - expect).abs() < 0.05 * expect, "{} vs {expect}", t.rate_bps());
    }

    #[test]
    fn loss_spike_is_smoothed_into_the_estimate() {
        // A single loss spike moves the loss-event estimate by only the
        // EWMA weight, and the per-step rate change is bounded (no halving
        // cascade as in AIMD).
        let mut t = TfrcController::default();
        for _ in 0..50 {
            t.update(0.01);
        }
        let before = t.rate_bps();
        t.update(0.5);
        assert!(t.loss_avg < 0.07, "estimate {}", t.loss_avg);
        assert!(t.rate_bps() >= 0.2 * before - 1.0, "bounded step");
        // Recovery: the estimate decays back once losses stop.
        for _ in 0..100 {
            t.update(0.01);
        }
        assert!((t.loss_avg - 0.01).abs() < 0.005);
    }
}
