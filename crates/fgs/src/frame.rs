//! Video frames and traces.
//!
//! An FGS-coded video consists of a *base layer* (must be received intact to
//! display anything) and a single *enhancement layer* per frame that can be
//! truncated at any byte boundary (Fine Granular Scalability, the streaming
//! profile of MPEG-4; paper Section 2.3).

use serde::{Deserialize, Serialize};

/// Sizes of one coded video frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameSpec {
    /// Frame index in display order.
    pub index: u64,
    /// Bytes in the base layer of this frame.
    pub base_bytes: u32,
    /// Bytes in the full (R_max-coded) FGS enhancement layer of this frame.
    pub enhancement_bytes: u32,
}

/// A sequence of frames with a fixed frame rate.
///
/// # Examples
///
/// ```
/// use pels_fgs::frame::VideoTrace;
///
/// let trace = VideoTrace::constant(300, 10.0, 10_500, 52_500);
/// assert_eq!(trace.len(), 300);
/// assert_eq!(trace.frame(0).base_bytes + trace.frame(0).enhancement_bytes, 63_000);
/// assert!((trace.frame_interval_secs() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VideoTrace {
    /// Frames per second.
    pub fps: f64,
    frames: Vec<FrameSpec>,
}

impl VideoTrace {
    /// Creates a trace from explicit frames.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is not positive/finite or `frames` is empty.
    pub fn new(fps: f64, frames: Vec<FrameSpec>) -> Self {
        assert!(fps.is_finite() && fps > 0.0, "invalid fps: {fps}");
        assert!(!frames.is_empty(), "a trace needs at least one frame");
        VideoTrace { fps, frames }
    }

    /// Creates a trace in which every frame has identical layer sizes —
    /// the paper's evaluation setup (Section 6.1: 63,000-byte frames,
    /// 126 packets of 500 bytes, 21 of them base-layer).
    pub fn constant(n_frames: usize, fps: f64, base_bytes: u32, enhancement_bytes: u32) -> Self {
        let frames = (0..n_frames as u64)
            .map(|index| FrameSpec { index, base_bytes, enhancement_bytes })
            .collect();
        Self::new(fps, frames)
    }

    /// Checks a trace that arrived from outside the program (a config file
    /// deserializes around [`VideoTrace::new`]'s assertions) against the
    /// packet size it will be cut into.
    ///
    /// # Errors
    ///
    /// `fps` must be positive and finite, there must be a frame, and every
    /// frame needs a base layer (a sender paces a frame's packets across its
    /// interval and a receiver decodes nothing without one) and, at full
    /// size, must fit the `u16` packet index of a frame tag.
    pub fn validate(&self, packet_bytes: u32) -> Result<(), String> {
        if !(self.fps.is_finite() && self.fps > 0.0) {
            return Err(format!("trace fps must be positive: {}", self.fps));
        }
        if self.frames.is_empty() {
            return Err("a trace needs at least one frame".into());
        }
        if packet_bytes == 0 {
            return Err("packet size must be positive".into());
        }
        for (i, f) in self.frames.iter().enumerate() {
            if f.base_bytes == 0 {
                return Err(format!("trace frame {i} has no base layer (base_bytes 0)"));
            }
            // Yellow and red are cut separately, so a split can add one
            // packet to the two layers' own counts.
            let packets = u64::from(f.base_bytes.div_ceil(packet_bytes))
                + u64::from(f.enhancement_bytes.div_ceil(packet_bytes))
                + 1;
            if packets > u64::from(u16::MAX) {
                return Err(format!(
                    "trace frame {i} needs {packets} packets of {packet_bytes} bytes; \
                     a frame holds at most {}",
                    u16::MAX
                ));
            }
        }
        Ok(())
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the trace has no frames (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The `i`-th frame, wrapping around for looped playout.
    pub fn frame(&self, i: u64) -> &FrameSpec {
        &self.frames[(i % self.frames.len() as u64) as usize]
    }

    /// Seconds between successive frames.
    pub fn frame_interval_secs(&self) -> f64 {
        1.0 / self.fps
    }

    /// Iterates over the frames.
    pub fn iter(&self) -> impl Iterator<Item = &FrameSpec> {
        self.frames.iter()
    }

    /// Serializes the trace as CSV: a header `fps,<fps>` line followed by
    /// `index,base_bytes,enhancement_bytes` rows (what `pels trace` prints).
    pub fn to_csv(&self) -> String {
        let mut out = format!("fps,{}\nindex,base_bytes,enhancement_bytes\n", self.fps);
        for f in &self.frames {
            out.push_str(&format!("{},{},{}\n", f.index, f.base_bytes, f.enhancement_bytes));
        }
        out
    }
}

/// The paper's evaluation profile: CIF Foreman packetization constants.
///
/// One frame is 63,000 bytes = 126 packets x 500 bytes, 21 packets of which
/// carry the base layer (Section 6.1). The frame rate is 10 fps (standard
/// for CIF Foreman in FGS experiments; the paper does not state it
/// explicitly — see EXPERIMENTS.md).
pub mod foreman {
    use super::VideoTrace;

    /// Packet payload size on the wire, bytes.
    pub const PACKET_BYTES: u32 = 500;
    /// Packets per full frame.
    pub const PACKETS_PER_FRAME: u32 = 126;
    /// Base-layer (green) packets per frame.
    pub const BASE_PACKETS: u32 = 21;
    /// Base-layer bytes per frame.
    pub const BASE_BYTES: u32 = BASE_PACKETS * PACKET_BYTES;
    /// Full enhancement-layer bytes per frame.
    pub const ENHANCEMENT_BYTES: u32 = (PACKETS_PER_FRAME - BASE_PACKETS) * PACKET_BYTES;
    /// Frame rate used in this reproduction.
    pub const FPS: f64 = 10.0;
    /// Frames in the CIF Foreman sequence.
    pub const NUM_FRAMES: usize = 300;

    /// The constant-size Foreman trace used by the paper's simulations.
    pub fn trace() -> VideoTrace {
        VideoTrace::constant(NUM_FRAMES, FPS, BASE_BYTES, ENHANCEMENT_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let t = foreman::trace();
        assert_eq!(t.frame(0).base_bytes + t.frame(0).enhancement_bytes, 63_000);
        assert_eq!(t.frame(0).base_bytes, 10_500);
        assert_eq!(t.frame(0).enhancement_bytes, 52_500);
        assert_eq!(foreman::PACKETS_PER_FRAME, 126);
        assert_eq!(foreman::BASE_PACKETS, 21);
    }

    #[test]
    fn wraps_for_looped_playout() {
        let t = VideoTrace::constant(3, 10.0, 100, 200);
        assert_eq!(t.frame(0).index, 0);
        assert_eq!(t.frame(3).index, 0);
        assert_eq!(t.frame(7).index, 1);
    }

    #[test]
    #[should_panic(expected = "invalid fps")]
    fn rejects_bad_fps() {
        let _ = VideoTrace::constant(10, 0.0, 100, 100);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn rejects_empty() {
        let _ = VideoTrace::new(10.0, vec![]);
    }
}
