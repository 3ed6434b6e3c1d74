//! Rate-distortion–aware budget allocation across frames.
//!
//! The paper streams a *fixed fraction* of every frame (Fig. 1 left) and
//! notes that quality fluctuation "can be further reduced using
//! sophisticated R-D scaling methods [5] (not used in this work)". This
//! module implements that future-work item: given per-frame R-D curves
//! (PSNR as a function of enhancement bytes) and a total byte budget for a
//! window of frames, allocate bytes to *equalize quality* across the
//! window (the classic reverse-waterfilling objective for concave R-D
//! curves).
//!
//! With the linear-to-cap R-D model of [`crate::psnr`], equalizing quality
//! has a closed form per water level; we binary-search the level.

use crate::psnr::RdModel;

/// Per-frame allocation limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameBudget {
    /// Frame index (into the R-D model).
    pub frame: u64,
    /// Maximum enhancement bytes available for this frame.
    pub max_bytes: u64,
}

/// Allocates `total_bytes` across `frames` to maximize the *minimum* frame
/// PSNR (equivalently: equalize PSNR, given concave per-frame curves),
/// respecting per-frame maxima.
///
/// Returns one allocation per input frame, in order; the allocations sum to
/// at most `total_bytes` (exactly, unless every frame hits its cap or its
/// PSNR ceiling first). Each allocation is within [`NEED_SLACK_BYTES`] above
/// what its frame needs to reach the common level, and no frame is given
/// bytes past its ceiling, where they would buy nothing.
///
/// # Examples
///
/// ```
/// use pels_fgs::psnr::RdModel;
/// use pels_fgs::rd_scaling::{allocate_equal_quality, FrameBudget};
///
/// let model = RdModel::foreman_like(10, 1);
/// let frames: Vec<FrameBudget> =
///     (0..10).map(|frame| FrameBudget { frame, max_bytes: 20_000 }).collect();
/// let alloc = allocate_equal_quality(&model, &frames, 50_000);
/// assert_eq!(alloc.len(), 10);
/// assert!(alloc.iter().sum::<u64>() <= 50_000);
/// ```
///
/// # Panics
///
/// Panics if `frames` is empty.
pub fn allocate_equal_quality(
    model: &RdModel,
    frames: &[FrameBudget],
    total_bytes: u64,
) -> Vec<u64> {
    assert!(!frames.is_empty(), "need at least one frame");

    // Bytes frame `i` needs to reach PSNR level `q` (clamped to its cap).
    let need = |fb: &FrameBudget, q: f64| -> u64 {
        let base = model.base_psnr(fb.frame);
        if q <= base {
            return 0;
        }
        // Invert the monotone R-D curve by binary search on bytes (robust
        // to any concave model, not just the linear-to-cap default).
        let (mut lo, mut hi) = (0u64, fb.max_bytes);
        let q = q.min(model.psnr(fb.frame, hi, true));
        while hi - lo > NEED_SLACK_BYTES {
            let mid = (lo + hi) / 2;
            if model.psnr(fb.frame, mid, true) < q {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    };
    let spend = |q: f64| -> u64 { frames.iter().map(|fb| need(fb, q)).sum() };

    // Binary search the water level q.
    let mut q_lo = frames.iter().map(|fb| model.base_psnr(fb.frame)).fold(f64::INFINITY, f64::min);
    let mut q_hi = frames
        .iter()
        .map(|fb| model.psnr(fb.frame, fb.max_bytes, true))
        .fold(f64::NEG_INFINITY, f64::max);
    for _ in 0..64 {
        let q = 0.5 * (q_lo + q_hi);
        if spend(q) > total_bytes {
            q_hi = q;
        } else {
            q_lo = q;
        }
    }
    frames.iter().map(|fb| need(fb, q_lo)).collect()
}

/// Resolution of [`allocate_equal_quality`]'s per-frame byte search.
pub const NEED_SLACK_BYTES: u64 = 8;

/// The fixed-fraction baseline the paper uses: every frame gets the same
/// byte budget (clamped to its maximum).
pub fn allocate_fixed(frames: &[FrameBudget], total_bytes: u64) -> Vec<u64> {
    assert!(!frames.is_empty(), "need at least one frame");
    let per = total_bytes / frames.len() as u64;
    frames.iter().map(|fb| per.min(fb.max_bytes)).collect()
}

/// PSNR standard deviation across frames for an allocation (the
/// "fluctuation" metric of the paper's Fig. 10 discussion).
pub fn psnr_std_dev(model: &RdModel, frames: &[FrameBudget], alloc: &[u64]) -> f64 {
    assert_eq!(frames.len(), alloc.len(), "allocation length mismatch");
    let vals: Vec<f64> =
        frames.iter().zip(alloc).map(|(fb, &b)| model.psnr(fb.frame, b, true)).collect();
    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
    (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psnr::RdConfig;

    fn frames(n: u64, cap: u64) -> Vec<FrameBudget> {
        (0..n).map(|frame| FrameBudget { frame, max_bytes: cap }).collect()
    }

    #[test]
    fn respects_total_budget_and_caps() {
        let model = RdModel::foreman_like(20, 3);
        let fs = frames(20, 5_000);
        let alloc = allocate_equal_quality(&model, &fs, 40_000);
        assert!(alloc.iter().sum::<u64>() <= 40_000 + 20 * NEED_SLACK_BYTES);
        assert!(alloc.iter().all(|&b| b <= 5_000));
    }

    #[test]
    fn reduces_psnr_variance_vs_fixed() {
        // High per-frame R-D variability: waterfilling should equalize.
        let cfg = RdConfig { slope_variation: 0.4, base_psnr_sd: 2.5, ..Default::default() };
        let model = RdModel::new(50, cfg, 7);
        let fs = frames(50, 8_000);
        let budget = 200_000;
        let fixed = allocate_fixed(&fs, budget);
        let rd = allocate_equal_quality(&model, &fs, budget);
        let sd_fixed = psnr_std_dev(&model, &fs, &fixed);
        let sd_rd = psnr_std_dev(&model, &fs, &rd);
        assert!(
            sd_rd < 0.5 * sd_fixed,
            "waterfilling should halve fluctuation: {sd_rd} vs {sd_fixed}"
        );
    }

    #[test]
    fn no_frame_is_given_bytes_past_its_ceiling() {
        // 12 kB caps sit well past where the gain saturates (~9 kB a frame),
        // and at that budget the common level lies above some ceilings.
        let model = RdModel::foreman_like(20, 3);
        let fs = frames(20, 12_000);
        let alloc = allocate_equal_quality(&model, &fs, 20 * 9_000);
        for (fb, &b) in fs.iter().zip(&alloc) {
            let short = b.saturating_sub(2 * NEED_SLACK_BYTES);
            assert!(b == 0 || model.psnr(fb.frame, short, true) < model.psnr(fb.frame, b, true));
        }
    }

    #[test]
    fn ample_budget_hits_caps() {
        let model = RdModel::foreman_like(5, 1);
        let fs = frames(5, 1_000);
        let alloc = allocate_equal_quality(&model, &fs, 1_000_000);
        assert!(alloc.iter().all(|&b| b >= 992), "{alloc:?}");
    }

    #[test]
    fn zero_budget_allocates_nothing() {
        let model = RdModel::foreman_like(5, 1);
        let fs = frames(5, 1_000);
        let alloc = allocate_equal_quality(&model, &fs, 0);
        assert!(alloc.iter().all(|&b| b == 0), "{alloc:?}");
    }

    #[test]
    fn poor_frames_get_more_bytes() {
        // A frame with a low base PSNR should receive more budget than a
        // high-quality one under equal-quality allocation.
        let cfg = RdConfig { base_psnr_sd: 3.0, slope_variation: 0.0, ..Default::default() };
        let model = RdModel::new(30, cfg, 11);
        let fs = frames(30, 10_000);
        let alloc = allocate_equal_quality(&model, &fs, 100_000);
        // Correlation between base PSNR and allocation must be negative.
        let bases: Vec<f64> = fs.iter().map(|f| model.base_psnr(f.frame)).collect();
        let mean_b = bases.iter().sum::<f64>() / 30.0;
        let mean_a = alloc.iter().sum::<u64>() as f64 / 30.0;
        let cov: f64 =
            bases.iter().zip(&alloc).map(|(b, &a)| (b - mean_b) * (a as f64 - mean_a)).sum();
        assert!(cov < 0.0, "covariance {cov} should be negative");
    }

    #[test]
    fn fixed_allocation_is_uniform() {
        let fs = frames(10, 3_000);
        let alloc = allocate_fixed(&fs, 25_000);
        assert!(alloc.iter().all(|&b| b == 2_500));
        let capped = allocate_fixed(&fs, 100_000);
        assert!(capped.iter().all(|&b| b == 3_000));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The allocation never exceeds the budget (plus search slack) or
        /// any per-frame cap, for arbitrary budgets and caps.
        #[test]
        fn allocation_is_feasible(
            n in 1u64..40,
            cap in 100u64..20_000,
            budget in 0u64..500_000,
            seed in 0u64..100,
        ) {
            let model = RdModel::foreman_like(n as usize, seed);
            let fs: Vec<FrameBudget> =
                (0..n).map(|frame| FrameBudget { frame, max_bytes: cap }).collect();
            let alloc = allocate_equal_quality(&model, &fs, budget);
            prop_assert_eq!(alloc.len(), fs.len());
            prop_assert!(alloc.iter().all(|&b| b <= cap));
            let slack = NEED_SLACK_BYTES * n; // binary-search quantization
            prop_assert!(alloc.iter().sum::<u64>() <= budget + slack);
        }
    }
}
