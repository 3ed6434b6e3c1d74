//! Monte-Carlo cross-validation of the closed forms (the "Simulations"
//! column of the paper's Table 1), plus drop-pattern generators for Fig. 3.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a Monte-Carlo estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Standard error of the mean.
    pub std_error: f64,
    /// Number of trials.
    pub trials: u64,
}

/// Simulates `trials` frames of `h` packets under Bernoulli loss `p` and
/// measures the mean number of useful (prefix-consecutive) packets —
/// the empirical counterpart of Eq. (2).
///
/// # Examples
///
/// ```
/// use pels_analysis::montecarlo::simulate_useful_fixed;
/// use pels_analysis::useful::expected_useful_fixed;
///
/// let est = simulate_useful_fixed(0.1, 100, 20_000, 42);
/// let model = expected_useful_fixed(0.1, 100);
/// assert!((est.mean - model).abs() < 4.0 * est.std_error + 0.05);
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`, `h == 0`, or `trials == 0`.
pub fn simulate_useful_fixed(p: f64, h: u32, trials: u64, seed: u64) -> Estimate {
    assert!((0.0..=1.0).contains(&p), "loss must be in [0,1]: {p}");
    assert!(h > 0 && trials > 0, "need h > 0 and trials > 0");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for _ in 0..trials {
        let mut useful = 0u32;
        for _ in 0..h {
            if rng.gen::<f64>() < p {
                break;
            }
            useful += 1;
        }
        let y = useful as f64;
        sum += y;
        sum_sq += y * y;
    }
    let n = trials as f64;
    let mean = sum / n;
    let var = (sum_sq / n - mean * mean).max(0.0);
    Estimate { mean, std_error: (var / n).sqrt(), trials }
}

/// A per-position drop map of one frame: `true` = packet lost.
pub type DropMap = Vec<bool>;

/// Fig. 3 (left): a frame of `h` packets under *random* loss `p`.
pub fn random_drop_pattern(p: f64, h: u32, seed: u64) -> DropMap {
    assert!((0.0..=1.0).contains(&p), "loss must be in [0,1]: {p}");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..h).map(|_| rng.gen::<f64>() < p).collect()
}

/// Fig. 3 (right): the *ideal* preferential pattern — the same number of
/// drops, but all taken from the top of the frame.
pub fn ideal_drop_pattern(drops: u32, h: u32) -> DropMap {
    assert!(drops <= h, "cannot drop more than the frame size");
    (0..h).map(|i| i >= h - drops).collect()
}

/// Number of useful (prefix) packets in a drop map.
pub fn useful_in(map: &DropMap) -> u32 {
    map.iter().take_while(|&&lost| !lost).count() as u32
}

/// Number of received packets in a drop map.
pub fn received_in(map: &DropMap) -> u32 {
    map.iter().filter(|&&lost| !lost).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::useful::{expected_useful_fixed, optimal_useful};

    #[test]
    fn matches_table1_model_within_error() {
        // Reproduce all three rows of Table 1.
        for (p, expect) in [(0.0001, 99.49), (0.01, 62.76), (0.1, 8.99)] {
            let est = simulate_useful_fixed(p, 100, 100_000, 7);
            assert!(
                (est.mean - expect).abs() < 5.0 * est.std_error.max(0.01),
                "p={p}: simulated {} vs model {expect}",
                est.mean
            );
        }
    }

    #[test]
    fn ideal_pattern_is_fully_useful() {
        let map = ideal_drop_pattern(25, 126);
        assert_eq!(useful_in(&map), 101);
        assert_eq!(received_in(&map), 101);
    }

    #[test]
    fn random_pattern_wastes_received_packets() {
        let map = random_drop_pattern(0.25, 126, 5);
        // Useful is a prefix; with 25% loss it is almost surely much
        // shorter than what was received.
        assert!(useful_in(&map) < received_in(&map));
    }

    #[test]
    fn zero_loss_is_all_useful() {
        let map = random_drop_pattern(0.0, 50, 1);
        assert_eq!(useful_in(&map), 50);
        let est = simulate_useful_fixed(1e-12, 50, 100, 1);
        assert!((est.mean - 50.0).abs() < 1e-6);
    }

    #[test]
    fn estimates_are_deterministic_per_seed() {
        let a = simulate_useful_fixed(0.1, 100, 1_000, 11);
        let b = simulate_useful_fixed(0.1, 100, 1_000, 11);
        assert_eq!(a, b);
    }

    #[test]
    fn useful_dominated_by_model_bounds() {
        let est = simulate_useful_fixed(0.2, 200, 20_000, 13);
        assert!(est.mean <= optimal_useful(0.2, 200));
        assert!((est.mean - expected_useful_fixed(0.2, 200)).abs() < 0.1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The simulated mean always lies within the logical bounds
        /// [0, H] and tracks the closed form within 6 standard errors.
        #[test]
        fn simulation_tracks_model(p in 0.01f64..0.5, h in 1u32..300, seed in 0u64..1000) {
            let est = simulate_useful_fixed(p, h, 3_000, seed);
            prop_assert!(est.mean >= 0.0 && est.mean <= h as f64);
            let model = crate::useful::expected_useful_fixed(p, h);
            prop_assert!(
                (est.mean - model).abs() < 6.0 * est.std_error + 0.2,
                "p={} h={} sim={} model={}", p, h, est.mean, model
            );
        }
    }
}
