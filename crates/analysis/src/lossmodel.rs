//! Loss-process models.
//!
//! The paper argues (Section 3) that AQM-enabled networks produce
//! near-independent drops, so it models loss as i.i.d. Bernoulli — giving
//! *geometric* (exponential-tail) loss-burst lengths, in contrast to the
//! heavy-tailed bursts of FIFO drop-tail queues. This module provides the
//! Bernoulli channel and burst-length statistics used to check that
//! assumption against the packet simulator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An i.i.d. Bernoulli loss channel.
///
/// # Examples
///
/// ```
/// use pels_analysis::lossmodel::BernoulliChannel;
///
/// let mut ch = BernoulliChannel::new(0.1, 42);
/// let lost = (0..10_000).filter(|_| ch.is_lost()).count();
/// assert!((lost as f64 / 10_000.0 - 0.1).abs() < 0.02);
/// ```
#[derive(Debug, Clone)]
pub struct BernoulliChannel {
    p: f64,
    rng: StdRng,
}

impl BernoulliChannel {
    /// Creates a channel with loss probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "invalid probability: {p}");
        BernoulliChannel { p, rng: StdRng::seed_from_u64(seed) }
    }

    /// Draws the fate of the next packet: `true` = lost.
    pub fn is_lost(&mut self) -> bool {
        self.rng.gen::<f64>() < self.p
    }
}

/// Distribution of loss-burst lengths observed in a loss indicator sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BurstStats {
    /// `counts[k-1]` = number of bursts of exactly `k` consecutive losses.
    pub counts: Vec<u64>,
}

impl BurstStats {
    /// Extracts burst lengths from a loss sequence (`true` = lost).
    pub fn from_sequence(seq: impl IntoIterator<Item = bool>) -> Self {
        let mut counts: Vec<u64> = Vec::new();
        let mut run = 0usize;
        let record = |run: usize, counts: &mut Vec<u64>| {
            if run > 0 {
                if counts.len() < run {
                    counts.resize(run, 0);
                }
                counts[run - 1] += 1;
            }
        };
        for lost in seq {
            if lost {
                run += 1;
            } else {
                record(run, &mut counts);
                run = 0;
            }
        }
        record(run, &mut counts);
        BurstStats { counts }
    }

    /// Total number of bursts.
    pub fn total_bursts(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Empirical probability of a burst having length `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 || k > self.counts.len() || self.total_bursts() == 0 {
            0.0
        } else {
            self.counts[k - 1] as f64 / self.total_bursts() as f64
        }
    }

    /// Mean burst length.
    pub fn mean(&self) -> f64 {
        let total = self.total_bursts();
        if total == 0 {
            return 0.0;
        }
        self.counts.iter().enumerate().map(|(i, &c)| (i as f64 + 1.0) * c as f64).sum::<f64>()
            / total as f64
    }

    /// Fits a geometric tail: estimates `r` in `P(len = k) ∝ r^(k-1)` by the
    /// mean (`mean = 1/(1-r)`). Bernoulli loss `p` predicts `r = p`.
    pub fn geometric_ratio(&self) -> f64 {
        let m = self.mean();
        if m <= 1.0 {
            0.0
        } else {
            1.0 - 1.0 / m
        }
    }
}

/// Theoretical burst-length PMF under Bernoulli loss `p`:
/// `P(len = k) = (1-p) p^(k-1)` (geometric).
pub fn geometric_burst_pmf(p: f64, k: usize) -> f64 {
    assert!((0.0..1.0).contains(&p), "loss must be in [0,1): {p}");
    assert!(k >= 1, "burst length starts at 1");
    (1.0 - p) * p.powi(k as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_extraction() {
        // losses: [1,1,0,1,0,0,1,1,1] -> bursts 2,1,3.
        let seq = [true, true, false, true, false, false, true, true, true];
        let b = BurstStats::from_sequence(seq);
        assert_eq!(b.total_bursts(), 3);
        assert_eq!(b.counts, vec![1, 1, 1]);
        assert!((b.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_burst_is_counted() {
        let b = BurstStats::from_sequence([false, true, true]);
        assert_eq!(b.total_bursts(), 1);
        assert_eq!(b.pmf(2), 1.0);
    }

    #[test]
    fn no_losses_no_bursts() {
        let b = BurstStats::from_sequence([false; 10]);
        assert_eq!(b.total_bursts(), 0);
        assert_eq!(b.mean(), 0.0);
        assert_eq!(b.geometric_ratio(), 0.0);
    }

    #[test]
    fn bernoulli_bursts_are_geometric() {
        let mut ch = BernoulliChannel::new(0.3, 5);
        let seq: Vec<bool> = (0..200_000).map(|_| ch.is_lost()).collect();
        let b = BurstStats::from_sequence(seq);
        // Mean burst length = 1/(1-p) ~ 1.4286.
        assert!((b.mean() - 1.0 / 0.7).abs() < 0.02, "mean {}", b.mean());
        // Empirical ratio tracks p.
        assert!((b.geometric_ratio() - 0.3).abs() < 0.02);
        // PMF matches the geometric law at small k.
        for k in 1..=4 {
            let expect = geometric_burst_pmf(0.3, k);
            assert!((b.pmf(k) - expect).abs() < 0.01, "k={k}: {} vs {expect}", b.pmf(k));
        }
    }

    #[test]
    fn geometric_pmf_sums_to_one() {
        let total: f64 = (1..200).map(|k| geometric_burst_pmf(0.4, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn channel_is_deterministic_per_seed() {
        let mut a = BernoulliChannel::new(0.5, 1);
        let mut b = BernoulliChannel::new(0.5, 1);
        for _ in 0..100 {
            assert_eq!(a.is_lost(), b.is_lost());
        }
    }
}

/// A two-state Gilbert loss channel: in the *good* state packets survive,
/// in the *bad* state they are lost; state transitions are Markovian. This
/// is the standard model of the bursty (heavy-tailed-ish) losses a FIFO
/// drop-tail queue produces — the contrast to the Bernoulli model the paper
/// adopts for AQM-enabled paths (Section 3).
#[derive(Debug, Clone)]
pub struct GilbertElliott {
    /// P(good -> bad) per packet.
    p_gb: f64,
    /// P(bad -> good) per packet.
    p_bg: f64,
    in_bad: bool,
    rng: StdRng,
}

impl GilbertElliott {
    /// Creates a channel from raw transition probabilities.
    ///
    /// # Panics
    ///
    /// Panics unless both probabilities lie in `(0, 1]`.
    pub fn new(p_gb: f64, p_bg: f64, seed: u64) -> Self {
        assert!(p_gb > 0.0 && p_gb <= 1.0, "p_gb must be in (0,1]: {p_gb}");
        assert!(p_bg > 0.0 && p_bg <= 1.0, "p_bg must be in (0,1]: {p_bg}");
        GilbertElliott { p_gb, p_bg, in_bad: false, rng: StdRng::seed_from_u64(seed) }
    }

    /// Creates a channel with a given long-run average loss and mean loss
    /// burst length (`mean_burst = 1/p_bg`). Bernoulli loss `p` corresponds
    /// to `mean_burst = 1/(1-p)`; a mean burst of exactly 1 forbids
    /// consecutive losses (sub-Bernoulli burstiness).
    ///
    /// # Panics
    ///
    /// Panics if `avg_loss` is outside `(0, 1)` or `mean_burst < 1`, or the
    /// pair is infeasible (`avg_loss` too large for the requested burst).
    pub fn with_average_loss(avg_loss: f64, mean_burst: f64, seed: u64) -> Self {
        assert!(avg_loss > 0.0 && avg_loss < 1.0, "avg loss must be in (0,1): {avg_loss}");
        assert!(mean_burst >= 1.0, "mean burst must be at least 1: {mean_burst}");
        let p_bg = 1.0 / mean_burst;
        // pi_bad = p_gb / (p_gb + p_bg) = avg_loss  =>  p_gb = avg p_bg/(1-avg).
        let p_gb = avg_loss * p_bg / (1.0 - avg_loss);
        assert!(p_gb <= 1.0, "infeasible (avg_loss, mean_burst) pair");
        GilbertElliott::new(p_gb, p_bg, seed)
    }

    /// Draws the fate of the next packet: `true` = lost.
    pub fn is_lost(&mut self) -> bool {
        // Transition first, then the state decides the fate.
        let u: f64 = self.rng.gen();
        self.in_bad = if self.in_bad { u >= self.p_bg } else { u < self.p_gb };
        self.in_bad
    }

    /// Mean loss-burst length (`1/p_bg`).
    pub fn mean_burst(&self) -> f64 {
        1.0 / self.p_bg
    }
}

#[cfg(test)]
mod gilbert_tests {
    use super::*;

    #[test]
    fn long_run_loss_matches_target() {
        let mut ch = GilbertElliott::with_average_loss(0.1, 5.0, 3);
        // The long-run loss the transition probabilities imply.
        assert!((ch.p_gb / (ch.p_gb + ch.p_bg) - 0.1).abs() < 1e-12);
        let lost = (0..500_000).filter(|_| ch.is_lost()).count();
        let rate = lost as f64 / 500_000.0;
        assert!((rate - 0.1).abs() < 0.01, "measured {rate}");
    }

    #[test]
    fn bursts_match_mean_burst() {
        let mut ch = GilbertElliott::with_average_loss(0.1, 5.0, 7);
        let seq: Vec<bool> = (0..500_000).map(|_| ch.is_lost()).collect();
        let b = BurstStats::from_sequence(seq);
        assert!((b.mean() - 5.0).abs() < 0.3, "burst mean {}", b.mean());
    }

    #[test]
    fn bernoulli_corresponds_to_burst_one_over_one_minus_p() {
        // With mean_burst = 1/(1-p) the chain's stay-bad probability equals
        // p, which is exactly Bernoulli(p): the loss flags are i.i.d.
        let p = 0.2;
        let mut ch = GilbertElliott::with_average_loss(p, 1.0 / (1.0 - p), 9);
        let seq: Vec<bool> = (0..300_000).map(|_| ch.is_lost()).collect();
        let b = BurstStats::from_sequence(seq);
        assert!((b.mean() - 1.25).abs() < 0.02, "burst mean {}", b.mean());
        // Compare burst PMF with the geometric law at small k.
        for k in 1..=3 {
            let expect = geometric_burst_pmf(p, k);
            assert!((b.pmf(k) - expect).abs() < 0.01, "k={k}");
        }
    }

    #[test]
    fn bursty_loss_helps_prefix_decoding() {
        // At equal average loss, clustering the losses lengthens the
        // gap-free prefix: E[Y] under bursty loss exceeds the Bernoulli
        // E[Y] of Eq. 2. (The paper's Bernoulli assumption is therefore
        // the *conservative* case for the best-effort analysis.)
        let h = 100u32;
        let p = 0.1;
        let trials = 30_000;
        let mut ge = GilbertElliott::with_average_loss(p, 8.0, 11);
        let mut sum = 0u64;
        for _ in 0..trials {
            let mut useful = 0u64;
            for _ in 0..h {
                if ge.is_lost() {
                    break;
                }
                useful += 1;
            }
            // Burn the rest of the frame to keep channel state realistic.
            for _ in useful..h as u64 {
                ge.is_lost();
            }
            sum += useful;
        }
        let ge_mean = sum as f64 / trials as f64;
        let bernoulli = crate::useful::expected_useful_fixed(p, h);
        assert!(
            ge_mean > 1.5 * bernoulli,
            "bursty E[Y] {ge_mean:.2} should exceed Bernoulli {bernoulli:.2}"
        );
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_infeasible_pair() {
        // Feasibility requires avg <= burst/(1+burst): 0.95 needs burst >= 19.
        let _ = GilbertElliott::with_average_loss(0.95, 10.0, 0);
    }
}
