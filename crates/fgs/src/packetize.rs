//! Packetization: splitting a scaled frame into wire packets.
//!
//! The paper transmits 500-byte packets; each frame's base layer goes first,
//! then the yellow (lower-enhancement) bytes, then the red
//! (upper-enhancement) bytes — the order matters because the receiver can
//! only use a *consecutive prefix* of the enhancement layer.
//!
//! The rule lives in one place, [`FramePackets`]: a frame is its three
//! segment byte counts and a packet size, and packet `i` is computed from
//! them. [`packetize`] is that descriptor collected into a list.

use crate::scaling::ScaledFrame;
use serde::{Deserialize, Serialize};

/// Which layer segment a packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Segment {
    /// Base layer — required for decoding, highest priority (green).
    Base,
    /// Lower part of the enhancement layer (yellow).
    Yellow,
    /// Upper, expendable part of the enhancement layer (red).
    Red,
}

/// One packet of a packetized frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketPlan {
    /// Index of the packet within its frame (0-based, transmission order).
    pub index: u16,
    /// Payload bytes.
    pub bytes: u32,
    /// Layer segment.
    pub segment: Segment,
}

/// The packets of one frame, held as the byte counts they are cut from:
/// base bytes, then the yellow prefix of the enhancement, then its red
/// suffix, each cut into `packet_bytes`-sized packets (the final packet of
/// each segment may be short). Packet `i` is computed when asked for, so a
/// frame costs 16 bytes however many packets it has.
///
/// # Examples
///
/// ```
/// use pels_fgs::packetize::{FramePackets, PacketPlan, Segment};
/// use pels_fgs::scaling::ScaledFrame;
///
/// let frame = ScaledFrame { base_bytes: 1_000, enhancement_bytes: 1_200 };
/// let pkts = FramePackets::new(&frame, 900, 300, 500);
/// assert_eq!((pkts.len(), pkts.base_count()), (5, 2));
/// assert_eq!(pkts.get(3), Some(PacketPlan { index: 3, bytes: 400, segment: Segment::Yellow }));
/// assert_eq!(pkts.get(5), None);
/// let segs: Vec<Segment> = pkts.iter().map(|p| p.segment).collect();
/// assert_eq!(segs, vec![
///     Segment::Base, Segment::Base,
///     Segment::Yellow, Segment::Yellow,
///     Segment::Red,
/// ]);
/// let total: u32 = pkts.iter().map(|p| p.bytes).sum();
/// assert_eq!(total, 2_200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FramePackets {
    /// Bytes of the base, yellow and red segments, in sending order.
    segments: [u32; 3],
    /// Full packet size; zero only in the empty [`Default`] frame.
    packet_bytes: u32,
}

impl FramePackets {
    const ORDER: [Segment; 3] = [Segment::Base, Segment::Yellow, Segment::Red];

    /// Cuts `frame` with `yellow_bytes` of yellow and `red_bytes` of red
    /// enhancement.
    ///
    /// # Panics
    ///
    /// Panics if `packet_bytes == 0` or `yellow_bytes + red_bytes` does not
    /// equal the frame's enhancement bytes.
    pub fn new(frame: &ScaledFrame, yellow_bytes: u32, red_bytes: u32, packet_bytes: u32) -> Self {
        assert!(packet_bytes > 0, "packet size must be positive");
        assert_eq!(
            yellow_bytes + red_bytes,
            frame.enhancement_bytes,
            "partition must cover the enhancement layer exactly"
        );
        FramePackets { segments: [frame.base_bytes, yellow_bytes, red_bytes], packet_bytes }
    }

    /// Packets in segment `s`.
    fn count(&self, s: usize) -> u16 {
        self.segments[s].div_ceil(self.packet_bytes.max(1)) as u16
    }

    /// Number of packets.
    pub fn len(&self) -> u16 {
        self.count(0) + self.count(1) + self.count(2)
    }

    /// Whether the frame has no packet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of base-layer packets (they come first).
    pub fn base_count(&self) -> u16 {
        self.count(0)
    }

    /// Packet `index`, if the frame has one.
    pub fn get(&self, index: u16) -> Option<PacketPlan> {
        let mut i = index;
        for (s, segment) in Self::ORDER.into_iter().enumerate() {
            let n = self.count(s);
            if i < n {
                let size = u64::from(self.packet_bytes);
                let bytes = (u64::from(self.segments[s]) - u64::from(i) * size).min(size);
                return Some(PacketPlan { index, bytes: bytes as u32, segment });
            }
            i -= n;
        }
        None
    }

    /// The packets in sending order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = PacketPlan> {
        (0..self.len()).map(move |i| self.get(i).expect("index below len"))
    }
}

/// Packetizes a frame into a list: [`FramePackets`], collected.
///
/// # Panics
///
/// As [`FramePackets::new`].
pub fn packetize(
    frame: &ScaledFrame,
    yellow_bytes: u32,
    red_bytes: u32,
    packet_bytes: u32,
) -> Vec<PacketPlan> {
    FramePackets::new(frame, yellow_bytes, red_bytes, packet_bytes).iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_frame_is_126_packets() {
        // Full-rate frame, no red partition: 21 base + 105 yellow.
        let frame = ScaledFrame { base_bytes: 10_500, enhancement_bytes: 52_500 };
        let pkts = packetize(&frame, 52_500, 0, 500);
        assert_eq!(pkts.len(), 126);
        assert_eq!(pkts.iter().filter(|p| p.segment == Segment::Base).count(), 21);
        assert!(pkts.iter().all(|p| p.bytes == 500));
    }

    #[test]
    fn indices_are_contiguous_transmission_order() {
        let frame = ScaledFrame { base_bytes: 1_500, enhancement_bytes: 2_000 };
        let pkts = packetize(&frame, 1_500, 500, 500);
        for (i, p) in pkts.iter().enumerate() {
            assert_eq!(p.index as usize, i);
        }
        // Base before yellow before red.
        let first_yellow = pkts.iter().position(|p| p.segment == Segment::Yellow).unwrap();
        let first_red = pkts.iter().position(|p| p.segment == Segment::Red).unwrap();
        let last_base = pkts.iter().rposition(|p| p.segment == Segment::Base).unwrap();
        assert!(last_base < first_yellow && first_yellow < first_red);
    }

    #[test]
    fn short_tail_packets() {
        let frame = ScaledFrame { base_bytes: 750, enhancement_bytes: 600 };
        let pkts = packetize(&frame, 450, 150, 500);
        // Base: 500 + 250; yellow: 450; red: 150.
        let sizes: Vec<u32> = pkts.iter().map(|p| p.bytes).collect();
        assert_eq!(sizes, vec![500, 250, 450, 150]);
    }

    #[test]
    fn zero_enhancement_is_base_only() {
        let frame = ScaledFrame { base_bytes: 1_000, enhancement_bytes: 0 };
        let pkts = packetize(&frame, 0, 0, 500);
        assert_eq!(pkts.len(), 2);
        assert!(pkts.iter().all(|p| p.segment == Segment::Base));
    }

    #[test]
    fn counts_and_indexing_match_the_list() {
        for (base, y, r) in [(10_500u32, 40_000u32, 12_500u32), (750, 450, 150), (1_000, 0, 0)] {
            let frame = ScaledFrame { base_bytes: base, enhancement_bytes: y + r };
            let (pkts, list) = (FramePackets::new(&frame, y, r, 500), packetize(&frame, y, r, 500));
            assert_eq!(usize::from(pkts.len()), list.len());
            let base_count = list.iter().filter(|p| p.segment == Segment::Base).count();
            assert_eq!(usize::from(pkts.base_count()), base_count);
            for p in &list {
                assert_eq!(pkts.get(p.index), Some(*p));
            }
            assert_eq!(pkts.get(pkts.len()), None);
        }
        let empty = FramePackets::default();
        assert_eq!((empty.len(), empty.get(0), empty.iter().len()), (0, None, 0));
    }

    #[test]
    #[should_panic(expected = "partition must cover")]
    fn rejects_inconsistent_partition() {
        let frame = ScaledFrame { base_bytes: 100, enhancement_bytes: 1_000 };
        let _ = packetize(&frame, 100, 100, 500);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::scaling::partition_enhancement;
    use proptest::prelude::*;

    proptest! {
        /// Packetization conserves bytes and keeps segments in order for any
        /// frame and gamma.
        #[test]
        fn conserves_bytes(base in 0u32..20_000, enh in 0u32..60_000, gamma in 0.0f64..=1.0) {
            let frame = ScaledFrame { base_bytes: base, enhancement_bytes: enh };
            let (y, r) = partition_enhancement(enh, gamma);
            let pkts = packetize(&frame, y, r, 500);
            let total: u64 = pkts.iter().map(|p| p.bytes as u64).sum();
            prop_assert_eq!(total, base as u64 + enh as u64);
            // Segment order is monotone: Base(0) <= Yellow(1) <= Red(2).
            let rank = |s: Segment| match s { Segment::Base => 0, Segment::Yellow => 1, Segment::Red => 2 };
            prop_assert!(pkts.windows(2).all(|w| rank(w[0].segment) <= rank(w[1].segment)));
            // Every packet is non-empty and within the MTU.
            prop_assert!(pkts.iter().all(|p| p.bytes > 0 && p.bytes <= 500));
            // Indices are contiguous from 0 in sending order.
            prop_assert!(pkts.iter().enumerate().all(|(i, p)| usize::from(p.index) == i));
        }
    }
}
