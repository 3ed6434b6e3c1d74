//! Max-min Kelly Control (MKC) — the paper's congestion controller
//! (Section 5, Eq. 8).
//!
//! `r(k) = r(k−D) + α − β r(k−D) p(k−D←)`
//!
//! where `p` is the *signed* feedback from the most-congested router
//! (Eq. 9/11): positive under overload, negative under spare capacity.
//! The negative regime yields multiplicative (exponential) bandwidth
//! claiming; the positive regime converges, without oscillation, to the
//! stationary rate `r* = C/N + α/β` (Lemma 6), independent of feedback
//! delay, and is stable iff `0 < β < 2` (Lemma 5).
//!
//! ## Stale-feedback fallback
//!
//! Eq. 8 assumes a steady stream of feedback epochs. When the reverse path
//! fails (link cut, ACK loss), the last `p` becomes arbitrarily stale and
//! holding the last rate can overload a recovering network. The controller
//! therefore tracks the arrival time of the freshest accepted epoch: once
//! the age exceeds [`STALE_TIMEOUT`], each watchdog check applies a
//! multiplicative decrease ([`STALE_DECAY`]) toward [`MIN_RATE`] — TCP-like
//! conservatism under silence. The first fresh epoch exits fallback, and
//! Lemma 6 guarantees reconvergence to `r* = C/N + α/β` from whatever rate
//! the decay reached.

use crate::SimError;
use pels_netsim::error::invalid_config;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Initial rate of every controller (paper: 128 kb/s — the base-layer
/// rate) unless an MKC flow sets its own.
pub const INITIAL_RATE: Rate = Rate::from_bps(128_000);
/// Floor below which no controller's rate falls (the base layer must flow).
pub const MIN_RATE: Rate = Rate::from_bps(64_000);
/// Default cap on the sending rate: the paper's 10 Mb/s access link.
pub const MAX_RATE: Rate = Rate::from_bps(10_000_000);
/// Clamp on how negative the feedback may be treated (bounds the
/// multiplicative ramp when the link is nearly idle).
pub const MIN_FEEDBACK: f64 = -10.0;
/// Feedback older than this is considered stale and triggers the
/// multiplicative-decrease fallback (10 feedback epochs at the 30 ms
/// interval). Staleness is only declared after at least one fresh epoch has
/// ever arrived, so a source that never hears feedback — e.g. a best-effort
/// comparator run — keeps its initial rate.
pub const STALE_TIMEOUT: SimDuration = SimDuration::from_millis(300);
/// Multiplicative decrease applied per watchdog check while stale.
pub const STALE_DECAY: f64 = 0.85;

/// Configuration of [`MkcController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MkcConfig {
    /// Additive gain α in bits/s per control step (paper: 20 kb/s).
    pub alpha_bps: f64,
    /// Multiplicative gain β (paper: 0.5). Must be in `(0, 2)`.
    pub beta: f64,
    /// Initial rate (paper: 128 kb/s — the base-layer rate).
    pub initial: Rate,
    /// Cap on the sending rate (e.g. the access-link speed).
    pub max_rate: Rate,
}

impl Default for MkcConfig {
    fn default() -> Self {
        MkcConfig { alpha_bps: 20_000.0, beta: 0.5, initial: INITIAL_RATE, max_rate: MAX_RATE }
    }
}

/// The per-flow MKC rate controller.
///
/// # Examples
///
/// ```
/// use pels_core::mkc::{MkcConfig, MkcController};
///
/// let mut mkc = MkcController::new(MkcConfig::default());
/// // Spare capacity (negative feedback) ramps the rate multiplicatively.
/// let before = mkc.rate_bps();
/// mkc.update(-5.0);
/// assert!(mkc.rate_bps() > 3.0 * before);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MkcController {
    cfg: MkcConfig,
    rate_bps: f64,
    updates: u64,
    /// When the freshest accepted feedback epoch arrived (`None` until the
    /// first epoch — startup silence is not staleness).
    last_fresh: Option<SimTime>,
    /// Whether the controller is currently in the stale fallback.
    in_fallback: bool,
    /// Multiplicative decreases applied while stale (diagnostic).
    stale_decays: u64,
}

impl MkcController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if gains are out of range (`α <= 0` or `β` outside `(0, 2)`),
    /// or the rate bounds are inconsistent.
    pub fn new(cfg: MkcConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a controller, rejecting invalid configurations as
    /// [`SimError::InvalidConfig`] instead of panicking.
    pub fn try_new(cfg: MkcConfig) -> Result<Self, SimError> {
        if !(cfg.alpha_bps > 0.0 && cfg.alpha_bps.is_finite()) {
            return Err(invalid_config("alpha must be positive"));
        }
        if !(cfg.beta > 0.0 && cfg.beta < 2.0) {
            return Err(invalid_config("beta must be in (0,2) for stability"));
        }
        if cfg.max_rate < MIN_RATE {
            return Err(invalid_config("max_rate must not be below the 64 kb/s floor"));
        }
        let rate = (cfg.initial.as_bps() as f64)
            .clamp(MIN_RATE.as_bps() as f64, cfg.max_rate.as_bps() as f64);
        Ok(MkcController {
            cfg,
            rate_bps: rate,
            updates: 0,
            last_fresh: None,
            in_fallback: false,
            stale_decays: 0,
        })
    }

    /// Current sending rate in bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.rate_bps
    }

    /// Current sending rate.
    pub fn rate(&self) -> Rate {
        Rate::from_bps(self.rate_bps.round() as u64)
    }

    /// Number of control steps applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The configuration.
    pub fn config(&self) -> &MkcConfig {
        &self.cfg
    }

    /// Applies one MKC step with signed feedback `p` (Eq. 8), using the
    /// current rate as the base. Returns the new rate in bits/s.
    ///
    /// Prefer [`MkcController::update_from`] when the rate that generated
    /// `p` is known (e.g. echoed through an ACK): Eq. 8's base is
    /// `r(k − D)`, and using the matching old rate is what makes MKC stable
    /// under arbitrary feedback delay (Lemma 5 / reference \[34\]).
    pub fn update(&mut self, p: f64) -> f64 {
        self.update_from(self.rate_bps, p)
    }

    /// Applies one MKC step `r ← base + α − β·base·p` (Eq. 8) where `base`
    /// is the rate in effect when `p` was measured (`r(k − D)`).
    /// Non-positive or non-finite bases fall back to the current rate.
    /// Returns the new rate in bits/s.
    pub fn update_from(&mut self, base_bps: f64, p: f64) -> f64 {
        let p = if p.is_finite() { p.clamp(MIN_FEEDBACK, 1.0) } else { 0.0 };
        let base = if base_bps.is_finite() && base_bps > 0.0 { base_bps } else { self.rate_bps };
        let next = base + self.cfg.alpha_bps - self.cfg.beta * base * p;
        self.rate_bps = next.clamp(MIN_RATE.as_bps() as f64, self.cfg.max_rate.as_bps() as f64);
        self.updates += 1;
        self.rate_bps
    }

    /// Lemma 6: the stationary rate `r* = C/N + α/β` for `n` flows sharing
    /// capacity `c` under this controller's gains.
    pub fn stationary_rate_bps(&self, c: Rate, n: usize) -> f64 {
        assert!(n > 0, "need at least one flow");
        c.as_bps() as f64 / n as f64 + self.cfg.alpha_bps / self.cfg.beta
    }

    /// Notes that a fresh feedback epoch was accepted at `now`, exiting the
    /// stale fallback if it was active. Call alongside
    /// [`MkcController::update_from`].
    pub fn record_fresh(&mut self, now: SimTime) {
        self.last_fresh = Some(now);
        self.in_fallback = false;
    }

    /// Whether feedback is stale at `now`: some epoch has arrived before,
    /// and the freshest one is older than [`STALE_TIMEOUT`].
    pub fn is_stale(&self, now: SimTime) -> bool {
        self.last_fresh.is_some_and(|t| now.duration_since(t) > STALE_TIMEOUT)
    }

    /// Watchdog hook: if feedback is stale at `now`, applies one
    /// multiplicative decrease `r ← max(r · STALE_DECAY, MIN_RATE)` and
    /// returns `true`. Invoke periodically (the PELS source does so every
    /// quarter of the stale timeout); the first fresh epoch after the fault
    /// clears ends the fallback and MKC reconverges to `r*` per Lemma 6.
    pub fn apply_staleness(&mut self, now: SimTime) -> bool {
        if !self.is_stale(now) {
            return false;
        }
        self.in_fallback = true;
        self.stale_decays += 1;
        self.rate_bps = (self.rate_bps * STALE_DECAY).max(MIN_RATE.as_bps() as f64);
        true
    }

    /// Whether the controller is currently decreasing for lack of feedback.
    pub fn in_stale_fallback(&self) -> bool {
        self.in_fallback
    }

    /// Total multiplicative decreases applied while stale.
    pub fn stale_decays(&self) -> u64 {
        self.stale_decays
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> MkcController {
        MkcController::new(MkcConfig::default())
    }

    #[test]
    fn additive_increase_at_zero_feedback() {
        let mut m = ctl();
        let r0 = m.rate_bps();
        m.update(0.0);
        assert!((m.rate_bps() - r0 - 20_000.0).abs() < 1e-9);
    }

    #[test]
    fn fixed_point_is_lemma6() {
        // Single flow on a 2 Mb/s link: r* = 2000 + 40 = 2040 kb/s.
        let mut m = ctl();
        let c = Rate::from_mbps(2.0);
        let target = m.stationary_rate_bps(c, 1);
        assert!((target - 2_040_000.0).abs() < 1e-6);
        // Feed it self-consistent feedback p = (r - C)/r and iterate.
        for _ in 0..500 {
            let r = m.rate_bps();
            let p = (r - c.as_bps() as f64) / r;
            m.update(p);
        }
        assert!((m.rate_bps() - target).abs() < 1.0, "rate {}", m.rate_bps());
    }

    #[test]
    fn converges_fast_from_below() {
        // Paper Fig. 9: from 128 kb/s the flow claims a 2 Mb/s link in a
        // handful of control intervals (exponential ramp).
        let mut m = ctl();
        let c = 2_000_000.0;
        let mut steps = 0;
        while m.rate_bps() < 0.95 * c && steps < 50 {
            let r = m.rate_bps();
            m.update((r - c) / r);
            steps += 1;
        }
        assert!(steps <= 10, "took {steps} steps");
    }

    #[test]
    fn no_oscillation_at_fixed_point() {
        let mut m = ctl();
        let c = 2_000_000.0;
        for _ in 0..200 {
            let r = m.rate_bps();
            m.update((r - c) / r);
        }
        let r1 = m.rate_bps();
        for _ in 0..50 {
            let r = m.rate_bps();
            m.update((r - c) / r);
        }
        assert!((m.rate_bps() - r1).abs() < 1e-6, "steady state drifted");
    }

    #[test]
    fn respects_rate_bounds() {
        let mut m = MkcController::new(MkcConfig {
            max_rate: Rate::from_kbps(500.0),
            ..Default::default()
        });
        for _ in 0..100 {
            m.update(-10.0);
        }
        assert!((m.rate_bps() - 500_000.0).abs() < 1e-9);
        for _ in 0..100 {
            m.update(0.99);
        }
        assert!((m.rate_bps() - 64_000.0).abs() < 1e-9);
    }

    #[test]
    fn non_finite_feedback_is_ignored_additively() {
        let mut m = ctl();
        let r0 = m.rate_bps();
        m.update(f64::NAN);
        assert!((m.rate_bps() - r0 - 20_000.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "beta must be in (0,2)")]
    fn rejects_unstable_beta() {
        let _ = MkcController::new(MkcConfig { beta: 2.5, ..Default::default() });
    }

    #[test]
    fn try_new_reports_invalid_configs() {
        use pels_netsim::SimError;
        assert!(MkcController::try_new(MkcConfig::default()).is_ok());
        let max_rate = Rate::from_kbps(32.0);
        let bad = MkcController::try_new(MkcConfig { max_rate, ..Default::default() });
        assert!(matches!(bad, Err(SimError::InvalidConfig(_))));
        let bad = MkcController::try_new(MkcConfig { alpha_bps: -1.0, ..Default::default() });
        assert_eq!(bad.unwrap_err().to_string(), "alpha must be positive");
    }

    #[test]
    fn startup_silence_is_not_staleness() {
        let mut m = ctl();
        let late = SimTime::from_secs_f64(100.0);
        assert!(!m.is_stale(late));
        assert!(!m.apply_staleness(late));
        assert!((m.rate_bps() - 128_000.0).abs() < 1e-9, "rate held");
    }

    #[test]
    fn stale_fallback_decays_to_floor_then_recovers() {
        let t = SimTime::from_secs_f64;
        let mut m = ctl();
        m.record_fresh(t(10.0));
        for _ in 0..10 {
            m.update(-5.0); // ramp well above the floor
        }
        let high = m.rate_bps();
        assert!(!m.is_stale(t(10.2)), "within the 300 ms timeout");
        assert!(m.is_stale(t(10.4)));

        assert!(m.apply_staleness(t(10.4)));
        assert!(m.in_stale_fallback());
        assert!((m.rate_bps() - high * 0.85).abs() < 1e-6);
        for i in 0..200 {
            m.apply_staleness(t(10.5 + 0.1 * i as f64));
        }
        assert!((m.rate_bps() - 64_000.0).abs() < 1e-9, "decayed to min_rate");
        assert!(m.stale_decays() > 100);

        // The first fresh epoch ends the fallback; Lemma 6 reconvergence.
        m.record_fresh(t(40.0));
        assert!(!m.in_stale_fallback());
        assert!(!m.is_stale(t(40.1)));
        let c = Rate::from_mbps(2.0);
        let target = m.stationary_rate_bps(c, 1);
        for _ in 0..50 {
            let r = m.rate_bps();
            m.update((r - c.as_bps() as f64) / r);
        }
        assert!((m.rate_bps() - target).abs() < 1.0, "reconverged to r*");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The rate always stays within configured bounds.
        #[test]
        fn rate_in_bounds(inputs in proptest::collection::vec(-20.0f64..1.0, 1..300)) {
            let mut m = MkcController::new(MkcConfig::default());
            for p in inputs {
                let r = m.update(p);
                prop_assert!((64_000.0..=10_000_000.0).contains(&r));
            }
        }

        /// Two flows fed identical feedback converge to identical rates
        /// regardless of initial conditions (fairness).
        #[test]
        fn fairness_under_shared_feedback(r0a in 64.0f64..5_000.0, r0b in 64.0f64..5_000.0) {
            let mk = |kbps: f64| MkcController::new(MkcConfig {
                initial: Rate::from_kbps(kbps),
                ..Default::default()
            });
            let (mut a, mut b) = (mk(r0a), mk(r0b));
            let c = 2_000_000.0;
            for _ in 0..2_000 {
                let total = a.rate_bps() + b.rate_bps();
                let p = (total - c) / total;
                a.update(p);
                b.update(p);
            }
            prop_assert!((a.rate_bps() - b.rate_bps()).abs() < 0.01 * a.rate_bps());
        }
    }
}
