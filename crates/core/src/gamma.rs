//! The γ partition controller (paper Section 4.3, Eq. 4).
//!
//! γ is the fraction of each frame's transmitted enhancement bytes marked
//! red. The controller drives the red-queue loss `p_R = p/γ` to a target
//! `p_thr` by the proportional rule
//!
//! `γ(k) = γ(k-1) + σ (p(k-1)/p_thr − γ(k-1))`
//!
//! which is stable iff `0 < σ < 2` (Lemma 2; Lemma 3 extends this to
//! arbitrary feedback delay, and `pels_analysis::stability` iterates that
//! delayed form, Eq. 5) and converges `p_R → p_thr` under stationary loss
//! (Lemma 4). The production controller here clamps γ to
//! `[GAMMA_LOW, 1]` as the paper's simulations do (Fig. 7: γ falls to
//! `γ_low = 0.05` while there is no loss).
//!
//! Robustness: when a loss sample is missing or garbled (non-finite) — as
//! happens under feedback loss or link failure — the controller *holds* the
//! last stable γ instead of treating the gap as zero loss, which would
//! wrongly decay γ to the floor and mispartition yellow/red on recovery.

use crate::SimError;
use pels_netsim::error::invalid_config;
use serde::{Deserialize, Serialize};

/// Initial partition fraction.
pub const GAMMA0: f64 = 0.5;
/// Lower clamp `γ_low` — a minimum red probe share is always kept.
pub const GAMMA_LOW: f64 = 0.05;

/// Configuration of [`GammaController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaConfig {
    /// Controller gain σ. Must be in `(0, 2)` for stability.
    pub sigma: f64,
    /// Target red-queue loss `p_thr` (the paper stabilizes 0.70–0.90;
    /// simulations use 0.75).
    pub p_thr: f64,
}

impl Default for GammaConfig {
    fn default() -> Self {
        GammaConfig { sigma: 0.5, p_thr: 0.75 }
    }
}

/// The per-flow γ controller.
///
/// # Examples
///
/// ```
/// use pels_core::gamma::{GammaConfig, GammaController};
///
/// let mut g = GammaController::new(GammaConfig::default());
/// for _ in 0..100 {
///     g.update(0.5); // heavy stationary loss
/// }
/// // Lemma 4 / Fig. 5: gamma* = p / p_thr = 0.5 / 0.75.
/// assert!((g.gamma() - 2.0 / 3.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GammaController {
    cfg: GammaConfig,
    gamma: f64,
    updates: u64,
    /// Control steps where the loss sample was missing and γ was held.
    held: u64,
}

impl GammaController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (`σ <= 0` or `p_thr`
    /// outside `(0, 1]`).
    pub fn new(cfg: GammaConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a controller, rejecting invalid configurations as
    /// [`SimError::InvalidConfig`] instead of panicking.
    pub fn try_new(cfg: GammaConfig) -> Result<Self, SimError> {
        if !(cfg.sigma > 0.0 && cfg.sigma.is_finite()) {
            return Err(invalid_config("sigma must be positive"));
        }
        if !(cfg.p_thr > 0.0 && cfg.p_thr <= 1.0) {
            return Err(invalid_config(format!("p_thr must be in (0,1]: {}", cfg.p_thr)));
        }
        Ok(GammaController { cfg, gamma: GAMMA0, updates: 0, held: 0 })
    }

    /// The current partition fraction γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The configuration.
    pub fn config(&self) -> &GammaConfig {
        &self.cfg
    }

    /// Applies one control step with the measured FGS-layer loss `p`
    /// (Eq. 4). Negative `p` (spare capacity in the congestion-control
    /// feedback) is treated as zero loss; a non-finite `p` (missing sample)
    /// holds γ via [`GammaController::hold`]. Returns the new γ.
    pub fn update(&mut self, p: f64) -> f64 {
        if !p.is_finite() {
            return self.hold();
        }
        let p = p.clamp(0.0, 1.0);
        let raw = self.gamma + self.cfg.sigma * (p / self.cfg.p_thr - self.gamma);
        self.gamma = raw.clamp(GAMMA_LOW, 1.0);
        self.updates += 1;
        self.gamma
    }

    /// Explicitly holds the last stable γ for one control interval whose
    /// loss sample is missing (feedback lost or stale). The clamp to
    /// `[GAMMA_LOW, 1]` is re-applied defensively; the update counter does
    /// not advance, but the hold is counted in [`GammaController::held`].
    pub fn hold(&mut self) -> f64 {
        self.gamma = self.gamma.clamp(GAMMA_LOW, 1.0);
        self.held += 1;
        self.gamma
    }

    /// Number of control intervals where γ was held for lack of a sample.
    pub fn held(&self) -> u64 {
        self.held
    }

    /// The fixed point γ* = p/p_thr the controller converges to under
    /// stationary loss `p` (Lemma 4), respecting the clamp.
    pub fn fixed_point(&self, p: f64) -> f64 {
        (p / self.cfg.p_thr).clamp(GAMMA_LOW, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_analysis::stability::gamma_trajectory;

    #[test]
    fn converges_to_fixed_point() {
        let mut g = GammaController::new(GammaConfig::default());
        for _ in 0..200 {
            g.update(0.15);
        }
        assert!((g.gamma() - 0.2).abs() < 1e-9);
        assert_eq!(g.updates(), 200);
    }

    #[test]
    fn no_loss_decays_to_gamma_low() {
        // Fig. 7: with no loss, gamma falls to the 0.05 floor.
        let mut g = GammaController::new(GammaConfig::default());
        for _ in 0..100 {
            g.update(0.0);
        }
        assert!((g.gamma() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn saturates_at_one_under_extreme_loss() {
        let mut g = GammaController::new(GammaConfig::default());
        for _ in 0..100 {
            g.update(0.95); // p > p_thr: gamma* would be 1.27, clamps to 1.
        }
        assert!((g.gamma() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_feedback_treated_as_zero() {
        let mut g = GammaController::new(GammaConfig::default());
        g.update(-5.0);
        assert!(g.gamma() >= 0.05);
        assert!(g.gamma() <= 0.5);
    }

    #[test]
    fn missing_sample_holds_last_stable_gamma() {
        let mut g = GammaController::new(GammaConfig::default());
        for _ in 0..100 {
            g.update(0.3); // converge to 0.4
        }
        let stable = g.gamma();
        for _ in 0..50 {
            g.update(f64::NAN); // feedback lost: hold, do not decay
        }
        assert!((g.gamma() - stable).abs() < 1e-12);
        assert_eq!(g.held(), 50);
        assert_eq!(g.updates(), 100, "holds are not control steps");
        // Explicit hold behaves identically.
        g.hold();
        assert!((g.gamma() - stable).abs() < 1e-12);
        assert_eq!(g.held(), 51);
    }

    #[test]
    fn try_new_rejects_bad_configs() {
        use pels_netsim::SimError;
        assert!(GammaController::try_new(GammaConfig::default()).is_ok());
        assert!(matches!(
            GammaController::try_new(GammaConfig { sigma: -1.0, ..Default::default() }),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tracks_loss_changes_both_directions() {
        let mut g = GammaController::new(GammaConfig::default());
        for _ in 0..100 {
            g.update(0.3);
        }
        let high = g.gamma();
        for _ in 0..100 {
            g.update(0.06);
        }
        let low = g.gamma();
        assert!(high > low);
        assert!((high - 0.4).abs() < 1e-6);
        assert!((low - 0.08).abs() < 1e-6);
    }

    #[test]
    fn fixed_point_respects_clamp() {
        let g = GammaController::new(GammaConfig::default());
        assert!((g.fixed_point(0.3) - 0.4).abs() < 1e-12);
        assert_eq!(g.fixed_point(0.0), 0.05);
        assert_eq!(g.fixed_point(0.9), 1.0);
    }

    #[test]
    #[should_panic(expected = "p_thr")]
    fn rejects_bad_threshold() {
        let _ = GammaController::new(GammaConfig { p_thr: 0.0, ..Default::default() });
    }

    // The delayed law (Eq. 5) is iterated by `pels_analysis::stability`,
    // where the stability lemmas are checked; these hold it to the
    // controller that ships.

    #[test]
    fn delayed_with_delay_one_matches_undelayed() {
        let cfg = GammaConfig::default();
        let mut plain = GammaController::new(cfg);
        let p = |k: usize| 0.1 + 0.05 * ((k % 7) as f64 / 7.0);
        let delayed = gamma_trajectory(GAMMA0, cfg.sigma, cfg.p_thr, 1, 100, p);
        for k in 0..100 {
            let (a, b) = (plain.update(p(k)), delayed[k + 1]);
            assert!((a - b).abs() < 1e-12, "step {k}: {a} vs {b}");
        }
    }

    #[test]
    fn delayed_converges_for_any_delay_lemma3() {
        let cfg = GammaConfig::default();
        let target = GammaController::new(cfg).fixed_point(0.3);
        for delay in [1usize, 3, 10] {
            let traj = gamma_trajectory(GAMMA0, cfg.sigma, cfg.p_thr, delay, 2_000, |_| 0.3);
            let last = traj[2_000];
            assert!((last - target).abs() < 1e-6, "delay {delay}: gamma {last} vs {target}");
        }
    }

    #[test]
    #[should_panic(expected = "delay must be at least 1")]
    fn delayed_rejects_zero_delay() {
        let cfg = GammaConfig::default();
        let _ = gamma_trajectory(GAMMA0, cfg.sigma, cfg.p_thr, 0, 10, |_| 0.3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// γ always stays within [GAMMA_LOW, 1] for any input sequence.
        #[test]
        fn gamma_always_in_bounds(
            inputs in proptest::collection::vec(-2.0f64..2.0, 1..200),
            sigma in 0.05f64..1.95,
        ) {
            let mut g = GammaController::new(GammaConfig { sigma, ..Default::default() });
            for p in inputs {
                let v = g.update(p);
                prop_assert!((0.05..=1.0).contains(&v));
            }
        }

        /// For stable gains, stationary loss converges to the clamped fixed
        /// point regardless of the starting value.
        #[test]
        fn converges_for_stable_gains(sigma in 0.05f64..1.95, p in 0.0f64..0.74) {
            let mut g = GammaController::new(GammaConfig { sigma, ..Default::default() });
            for _ in 0..6_000 {
                g.update(p);
            }
            prop_assert!((g.gamma() - g.fixed_point(p)).abs() < 1e-3);
        }
    }
}
