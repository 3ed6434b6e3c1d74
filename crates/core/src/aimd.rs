//! An AIMD rate controller, used as the congestion-control ablation.
//!
//! The paper stresses that PELS is *independent* of the congestion control
//! employed (Section 5: "PELS is independent of congestion control and can
//! be utilized with any end-to-end or AQM scheme") and motivates MKC by
//! AIMD's "unacceptable" rate fluctuations for video. This controller lets
//! the benchmark harness demonstrate both claims: PELS keeps utility high
//! under AIMD too, while AIMD's rate variance is far larger than MKC's.
//! It starts, floors and caps its rate where MKC does by default
//! ([`INITIAL_RATE`], [`MIN_RATE`], [`MAX_RATE`]).

use crate::mkc::{INITIAL_RATE, MAX_RATE, MIN_RATE};
use serde::{Deserialize, Serialize};

/// Additive increase per control step when no congestion, bits/s (MKC's α).
const INCREASE_BPS: f64 = 20_000.0;
/// Multiplicative decrease factor applied on congestion.
const DECREASE: f64 = 0.5;
/// Loss level above which a step counts as congested: any positive `p`.
const LOSS_THRESHOLD: f64 = 0.0;

/// Additive-increase / multiplicative-decrease rate control.
///
/// # Examples
///
/// ```
/// use pels_core::aimd::AimdController;
///
/// let mut aimd = AimdController::default();
/// aimd.update(0.0);  // no loss: +20 kb/s
/// assert_eq!(aimd.rate_bps(), 148_000.0);
/// aimd.update(0.2);  // loss: halve
/// assert_eq!(aimd.rate_bps(), 74_000.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AimdController {
    rate_bps: f64,
    updates: u64,
    /// Congestion (decrease) events so far.
    pub backoffs: u64,
}

impl Default for AimdController {
    fn default() -> Self {
        AimdController { rate_bps: INITIAL_RATE.as_bps() as f64, updates: 0, backoffs: 0 }
    }
}

impl AimdController {
    /// Current rate, bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Number of control steps applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Applies one AIMD step with (signed) feedback `p`: decrease
    /// multiplicatively when `p` exceeds the loss threshold, otherwise
    /// increase additively. Returns the new rate.
    pub fn update(&mut self, p: f64) -> f64 {
        let next = if p.is_finite() && p > LOSS_THRESHOLD {
            self.backoffs += 1;
            self.rate_bps * DECREASE
        } else {
            self.rate_bps + INCREASE_BPS
        };
        self.rate_bps = next.clamp(MIN_RATE.as_bps() as f64, MAX_RATE.as_bps() as f64);
        self.updates += 1;
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sawtooth_behaviour() {
        let mut a = AimdController::default();
        for _ in 0..10 {
            a.update(0.0);
        }
        assert_eq!(a.rate_bps(), 328_000.0);
        a.update(0.5);
        assert_eq!(a.rate_bps(), 164_000.0);
        assert_eq!(a.backoffs, 1);
    }

    #[test]
    fn oscillates_forever_unlike_mkc() {
        // Feed self-consistent feedback: AIMD has no fixed point above the
        // knee — it must oscillate.
        let mut a = AimdController::default();
        let c = 2_000_000.0;
        let mut rates = Vec::new();
        for _ in 0..2_000 {
            let r = a.rate_bps();
            a.update((r - c) / r);
            rates.push(a.rate_bps());
        }
        let tail = &rates[1_500..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let var = tail.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / tail.len() as f64;
        // Coefficient of variation stays macroscopic (sawtooth).
        assert!(var.sqrt() / mean > 0.05, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn respects_bounds() {
        let mut a = AimdController::default();
        for _ in 0..100 {
            a.update(0.9);
        }
        assert_eq!(a.rate_bps(), 64_000.0);
        for _ in 0..1_000 {
            a.update(-1.0);
        }
        assert_eq!(a.rate_bps(), 10_000_000.0);
    }
}
