//! Rate scaling: how many enhancement bytes of each frame to transmit.
//!
//! The FGS layer is coded once at a very large bitrate `R_max` and re-scaled
//! at streaming time by truncating each frame (paper Section 2.3, Fig. 1).
//! Given the sending rate allowed by congestion control, the scaler decides
//! `x_i` — the enhancement bytes of frame `i` that go on the wire.

use crate::frame::FrameSpec;

/// Truncation plan for one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaledFrame {
    /// Base-layer bytes (always transmitted in full).
    pub base_bytes: u32,
    /// Enhancement bytes selected for transmission (`x_i` in the paper).
    pub enhancement_bytes: u32,
}

/// Scales frames to a target rate by giving every frame the same byte budget
/// (the "fixed fraction" policy of Fig. 1 left, which is what the paper's
/// simulations use: `x_i` is derived from the congestion-control rate).
///
/// The budget per frame is `rate / fps` bytes; the base layer is always
/// included in full (its loss makes the frame undecodable), and the
/// remainder goes to the enhancement layer, truncated to what exists.
///
/// # Examples
///
/// ```
/// use pels_fgs::frame::FrameSpec;
/// use pels_fgs::scaling::scale_to_rate;
///
/// let f = FrameSpec { index: 0, base_bytes: 10_500, enhancement_bytes: 52_500 };
/// // 1 Mb/s at 10 fps = 12,500 B/frame; 2,000 B left for enhancement.
/// let s = scale_to_rate(&f, 1_000_000.0, 10.0);
/// assert_eq!(s.enhancement_bytes, 2_000);
/// assert_eq!(s.base_bytes + s.enhancement_bytes, 12_500);
/// ```
///
/// # Panics
///
/// Panics if `rate_bps` is negative or `fps` is not positive.
pub fn scale_to_rate(frame: &FrameSpec, rate_bps: f64, fps: f64) -> ScaledFrame {
    assert!(rate_bps.is_finite() && rate_bps >= 0.0, "invalid rate: {rate_bps}");
    assert!(fps.is_finite() && fps > 0.0, "invalid fps: {fps}");
    let budget_bytes = (rate_bps / 8.0 / fps).floor() as u64;
    let enh = budget_bytes
        .saturating_sub(frame.base_bytes as u64)
        .min(frame.enhancement_bytes as u64) as u32;
    ScaledFrame { base_bytes: frame.base_bytes, enhancement_bytes: enh }
}

/// Splits `x` enhancement bytes into a yellow prefix and red suffix using
/// partition fraction `gamma` (paper Fig. 4 right): the lower
/// `(1 - gamma) * x` bytes are yellow, the upper `gamma * x` bytes are red.
///
/// Returns `(yellow_bytes, red_bytes)` with `yellow + red == x` exactly
/// (rounding goes to red, the expendable class).
///
/// # Examples
///
/// ```
/// use pels_fgs::scaling::partition_enhancement;
///
/// assert_eq!(partition_enhancement(1000, 0.25), (750, 250));
/// assert_eq!(partition_enhancement(1000, 0.0), (1000, 0));
/// assert_eq!(partition_enhancement(1000, 1.0), (0, 1000));
/// ```
///
/// # Panics
///
/// Panics if `gamma` is outside `[0, 1]`.
pub fn partition_enhancement(x_bytes: u32, gamma: f64) -> (u32, u32) {
    assert!(gamma.is_finite() && (0.0..=1.0).contains(&gamma), "gamma must be in [0,1]: {gamma}");
    let yellow = ((1.0 - gamma) * x_bytes as f64).floor() as u32;
    (yellow, x_bytes - yellow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> FrameSpec {
        FrameSpec { index: 0, base_bytes: 10_500, enhancement_bytes: 52_500 }
    }

    #[test]
    fn rate_below_base_sends_base_only() {
        // 128 kb/s at 10 fps = 1,600 B/frame < 10,500 B base.
        let s = scale_to_rate(&frame(), 128_000.0, 10.0);
        assert_eq!(s.enhancement_bytes, 0);
        assert_eq!(s.base_bytes, 10_500);
    }

    #[test]
    fn rate_above_full_caps_at_rmax() {
        // 100 Mb/s at 10 fps = 1.25 MB/frame >> 63 kB frame.
        let s = scale_to_rate(&frame(), 100_000_000.0, 10.0);
        assert_eq!(s.enhancement_bytes, 52_500);
    }

    #[test]
    fn budget_is_monotone_in_rate() {
        let mut last = 0;
        for rate in (0..50).map(|i| i as f64 * 100_000.0) {
            let s = scale_to_rate(&frame(), rate, 10.0);
            assert!(s.enhancement_bytes >= last);
            last = s.enhancement_bytes;
        }
    }

    #[test]
    fn partition_is_exact() {
        for x in [0u32, 1, 2, 999, 1000, 52_500] {
            for gamma in [0.0, 0.05, 0.33, 0.5, 0.75, 1.0] {
                let (y, r) = partition_enhancement(x, gamma);
                assert_eq!(y + r, x, "x={x} gamma={gamma}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn partition_rejects_bad_gamma() {
        let _ = partition_enhancement(100, 1.5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// partition never loses or invents bytes and respects the gamma
        /// proportion within one byte of rounding.
        #[test]
        fn partition_conserves(x in 0u32..100_000, gamma in 0.0f64..=1.0) {
            let (y, r) = partition_enhancement(x, gamma);
            prop_assert_eq!(y + r, x);
            let expect_yellow = (1.0 - gamma) * x as f64;
            prop_assert!((y as f64 - expect_yellow).abs() <= 1.0);
        }

        /// scale_to_rate never exceeds the frame or the rate budget.
        #[test]
        fn scale_bounds(rate in 0.0f64..20_000_000.0, fps in 1.0f64..60.0) {
            let f = FrameSpec { index: 0, base_bytes: 10_500, enhancement_bytes: 52_500 };
            let s = scale_to_rate(&f, rate, fps);
            prop_assert!(s.enhancement_bytes <= f.enhancement_bytes);
            let budget = rate / 8.0 / fps;
            // base always included; enhancement fits in the leftover budget.
            if s.enhancement_bytes > 0 {
                prop_assert!((s.base_bytes + s.enhancement_bytes) as f64 <= budget + 1.0);
            }
        }
    }
}
