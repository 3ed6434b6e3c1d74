//! The receiver-side FGS decoder model.
//!
//! FGS enhancement data is only decodable as a *consecutive prefix*: a
//! single gap renders everything above it useless (paper Section 3, Fig. 3).
//! The base layer requires *all* of its packets — motion compensation and
//! VLC coding propagate any base-layer loss across the GOP.
//!
//! A receiver needs one fact per packet — did it arrive — so a frame's
//! record ([`FrameReception`]) is a bitset and a packet size, 40 bytes
//! whatever the frame, and a flow's records live in one [`FrameLog`] that
//! both the simulated and the wire receiver own. The log's chunk key and
//! slot say which frame a record belongs to, so the record does not.

use crate::packetize::{PacketPlan, Segment};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Packets whose receive flag lives inside the record itself.
const INLINE_PACKETS: usize = 128;
/// Odd-sized packets remembered inside the record itself: one short tail
/// per segment (base, yellow, red) is what a packetized frame has.
const INLINE_ODD: usize = 3;

/// Reception record of one transmitted frame.
///
/// Packets are assumed to be one size except for a few odd ones (the short
/// tail of each segment), so the record holds a receive bit per packet, one
/// default size and the odd sizes by index. Frames of up to 128 packets with
/// up to three odd sizes below 64 KiB — every frame the paper's setup
/// produces — cost no heap allocation; anything beyond goes to one boxed
/// spill.
#[derive(Debug, Clone)]
pub struct FrameReception {
    /// Number of packets the frame was transmitted with.
    pub total: u16,
    /// Number of those that were base-layer packets.
    pub base_count: u16,
    /// Payload size of every packet not listed as odd. A common size of
    /// 64 KiB or more does not fit, so the default is then 0 and every
    /// packet of another size is listed.
    default_bytes: u16,
    /// Receive flags of packets `0..128`, bit `i % 64` of word `i / 64`.
    /// Bits at or beyond `total` are never set.
    bits: [u64; INLINE_PACKETS / 64],
    /// `(index, bytes)` of the first `odd_len` odd-sized packets whose index
    /// fits a byte and size 16 bits; the others are in the spill.
    odd_index: [u8; INLINE_ODD],
    odd_bytes: [u16; INLINE_ODD],
    odd_len: u8,
    /// Present when `total > 128` or an odd size did not fit inline.
    spill: Option<Box<Spill>>,
}

/// What does not fit inside a [`FrameReception`].
#[derive(Debug, Clone, Default)]
struct Spill {
    /// Receive flags of packets `128..total`.
    bits: Vec<u64>,
    /// Further odd sizes, sorted by packet index.
    odd: Vec<(u16, u32)>,
}

impl Spill {
    /// The size on record for packet `index`, if it has one here.
    fn odd_size_mut(&mut self, index: u16) -> Option<&mut u32> {
        let at = self.odd.binary_search_by_key(&index, |e| e.0).ok()?;
        Some(&mut self.odd[at].1)
    }
}

impl FrameReception {
    /// Creates an empty record for a frame transmitted as `plan`.
    pub fn from_plan(plan: &[PacketPlan]) -> Self {
        // Tails are shorter than full packets, so the largest size is the
        // common one.
        let default_bytes = plan.iter().map(|p| p.bytes).max().unwrap_or(0);
        let base_count = plan.iter().filter(|p| p.segment == Segment::Base).count() as u16;
        let mut rec = Self::with_counts(plan.len() as u16, base_count, default_bytes);
        for (i, p) in plan.iter().enumerate() {
            rec.set_size(i as u16, p.bytes);
        }
        rec
    }

    /// Creates a record when only counts are known (packet sizes assumed
    /// uniform `packet_bytes`).
    pub fn with_counts(total: u16, base_count: u16, packet_bytes: u32) -> Self {
        let spill = (total as usize > INLINE_PACKETS).then(|| {
            let words = (total as usize - INLINE_PACKETS).div_ceil(64);
            Box::new(Spill { bits: vec![0; words], odd: Vec::new() })
        });
        let mut rec = FrameReception {
            total,
            base_count,
            default_bytes: u16::try_from(packet_bytes).unwrap_or(0),
            bits: [0; INLINE_PACKETS / 64],
            odd_index: [0; INLINE_ODD],
            odd_bytes: [0; INLINE_ODD],
            odd_len: 0,
            spill,
        };
        if u32::from(rec.default_bytes) != packet_bytes {
            for index in 0..total {
                rec.set_size(index, packet_bytes);
            }
        }
        rec
    }

    /// Marks packet `index` as received. Out-of-range indices are ignored
    /// (they belong to a stale generation of the frame).
    pub fn mark_received(&mut self, index: u16) {
        if index >= self.total {
            return;
        }
        let (word, bit) = (index as usize / 64, 1u64 << (index % 64));
        match self.bits.get_mut(word) {
            Some(w) => *w |= bit,
            None => {
                let spill = self.spill.as_mut().expect("a frame over 128 packets has a spill");
                spill.bits[word - INLINE_PACKETS / 64] |= bit;
            }
        }
    }

    /// Marks packet `index` as received and records its actual payload size
    /// (used by receivers that learn sizes from the wire, where tail packets
    /// of a segment may be shorter than the MTU).
    pub fn mark_received_sized(&mut self, index: u16, bytes: u32) {
        if index < self.total {
            self.mark_received(index);
            self.set_size(index, bytes);
        }
    }

    /// Whether packet `index` was received.
    pub fn is_received(&self, index: u16) -> bool {
        index < self.total
            && self.words().nth(index as usize / 64).is_some_and(|w| w >> (index % 64) & 1 == 1)
    }

    /// Indices of the packets not received yet, ascending.
    pub fn missing(&self) -> impl Iterator<Item = u16> + '_ {
        let total = self.total as usize;
        self.words().enumerate().flat_map(move |(w, bits)| {
            let lo = w * 64;
            let valid = if total - lo >= 64 { u64::MAX } else { (1u64 << (total - lo)) - 1 };
            let mut gaps = !bits & valid;
            std::iter::from_fn(move || {
                (gaps != 0).then(|| {
                    let bit = gaps.trailing_zeros() as usize;
                    gaps &= gaps - 1;
                    (lo + bit) as u16
                })
            })
        })
    }

    /// The receive-flag words covering packets `0..total`.
    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let spilled = self.spill.as_deref().map_or(&[][..], |s| &s.bits);
        self.bits.iter().chain(spilled).copied().take((self.total as usize).div_ceil(64))
    }

    /// Packets received among indices `0..end`.
    fn received_below(&self, end: u16) -> u32 {
        let end = end as usize;
        self.words()
            .enumerate()
            .take_while(|&(w, _)| w * 64 < end)
            .map(|(w, bits)| {
                let keep = end - w * 64;
                let mask = if keep >= 64 { u64::MAX } else { (1u64 << keep) - 1 };
                (bits & mask).count_ones()
            })
            .sum()
    }

    /// The odd-sized packets on record, in no particular order.
    fn odd(&self) -> impl Iterator<Item = (u16, u32)> + '_ {
        let inline = self.odd_index.iter().zip(self.odd_bytes).take(self.odd_len as usize);
        let inline = inline.map(|(&i, b)| (u16::from(i), u32::from(b)));
        inline.chain(self.spill.iter().flat_map(|s| s.odd.iter().copied()))
    }

    /// Records that packet `index` carries `bytes`.
    fn set_size(&mut self, index: u16, bytes: u32) {
        let n = self.odd_len as usize;
        let narrow = u16::try_from(bytes).ok();
        if let Some(i) = self.odd_index[..n].iter().position(|&x| u16::from(x) == index) {
            if let Some(b) = narrow {
                self.odd_bytes[i] = b;
                return;
            }
            // Too wide to stay inline: the entry moves to the spill.
            self.odd_index.copy_within(i + 1..n, i);
            self.odd_bytes.copy_within(i + 1..n, i);
            self.odd_len -= 1;
        } else if let Some(known) = self.spill.as_mut().and_then(|s| s.odd_size_mut(index)) {
            *known = bytes;
            return;
        } else if bytes == u32::from(self.default_bytes) {
            // Not on record, and nothing odd about it.
            return;
        }
        match (u8::try_from(index), narrow) {
            (Ok(i), Some(b)) if (self.odd_len as usize) < INLINE_ODD => {
                let n = self.odd_len as usize;
                self.odd_index[n] = i;
                self.odd_bytes[n] = b;
                self.odd_len += 1;
            }
            _ => {
                let spill = self.spill.get_or_insert_with(Box::default);
                let at = spill.odd.partition_point(|e| e.0 < index);
                spill.odd.insert(at, (index, bytes));
            }
        }
    }

    /// Decodes the frame, which is frame number `frame` of its stream (see
    /// [`DecodedFrame`]).
    pub fn decode(&self, frame: u64) -> DecodedFrame {
        let (base, total) = (self.base_count.min(self.total), self.total);
        let mut gaps = self.missing().peekable();
        let base_ok = gaps.peek().is_none_or(|&i| i >= base);
        // The decodable prefix ends at the first enhancement packet missing.
        let prefix_end = gaps.find(|&i| i >= base).unwrap_or(total);
        let received_packets = self.received_below(total) - self.received_below(base);
        let useful_packets = u32::from(prefix_end - base);
        let size = u64::from(self.default_bytes);
        let mut received_bytes = u64::from(received_packets) * size;
        let mut useful_bytes = u64::from(useful_packets) * size;
        for (index, bytes) in self.odd() {
            if index >= base && self.is_received(index) {
                received_bytes = received_bytes + u64::from(bytes) - size;
                if index < prefix_end {
                    useful_bytes = useful_bytes + u64::from(bytes) - size;
                }
            }
        }
        DecodedFrame {
            frame,
            base_ok,
            enh_sent_packets: u32::from(total - base),
            enh_received_packets: received_packets,
            enh_received_bytes: received_bytes,
            enh_useful_packets: useful_packets,
            enh_useful_bytes: if base_ok { useful_bytes } else { 0 },
        }
    }
}

/// Result of decoding one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecodedFrame {
    /// Frame index.
    pub frame: u64,
    /// Whether the base layer arrived intact (all base packets received).
    pub base_ok: bool,
    /// Enhancement packets transmitted.
    pub enh_sent_packets: u32,
    /// Enhancement packets received (any position).
    pub enh_received_packets: u32,
    /// Enhancement bytes received (any position).
    pub enh_received_bytes: u64,
    /// Enhancement packets in the decodable consecutive prefix
    /// (`Y_j` in the paper's Lemma 1).
    pub enh_useful_packets: u32,
    /// Bytes in the decodable prefix; zero when the base layer is broken
    /// (enhancement is useless without its base).
    pub enh_useful_bytes: u64,
}

impl DecodedFrame {
    /// Per-frame utility: useful / received enhancement packets
    /// (paper Eq. 3's numerator/denominator for one frame). `None` when no
    /// enhancement packets were received.
    pub fn utility(&self) -> Option<f64> {
        if self.enh_received_packets == 0 {
            None
        } else {
            Some(self.enh_useful_packets as f64 / self.enh_received_packets as f64)
        }
    }
}

/// Aggregate utility over many decoded frames.
///
/// # Examples
///
/// ```
/// use pels_fgs::decoder::{FrameReception, UtilityStats};
/// use pels_fgs::packetize::packetize;
/// use pels_fgs::scaling::ScaledFrame;
///
/// let frame = ScaledFrame { base_bytes: 500, enhancement_bytes: 1_500 };
/// let plan = packetize(&frame, 1_500, 0, 500);
/// let mut rx = FrameReception::from_plan(&plan);
/// for i in [0u16, 1, 2] { rx.mark_received(i); } // lose the last packet
/// let mut stats = UtilityStats::new();
/// stats.add(&rx.decode(0));
/// assert_eq!(stats.utility(), 1.0); // the received prefix is consecutive
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UtilityStats {
    /// Frames accumulated.
    pub frames: u64,
    /// Frames whose base layer survived.
    pub base_ok_frames: u64,
    /// Total enhancement packets sent.
    pub enh_sent: u64,
    /// Total enhancement packets received.
    pub enh_received: u64,
    /// Total useful enhancement packets.
    pub enh_useful: u64,
    /// Total useful enhancement bytes.
    pub enh_useful_bytes: u64,
}

impl UtilityStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates one decoded frame.
    pub fn add(&mut self, d: &DecodedFrame) {
        self.frames += 1;
        self.base_ok_frames += d.base_ok as u64;
        self.enh_sent += d.enh_sent_packets as u64;
        self.enh_received += d.enh_received_packets as u64;
        self.enh_useful += d.enh_useful_packets as u64;
        self.enh_useful_bytes += d.enh_useful_bytes;
    }

    /// Aggregate utility `U` = useful / received enhancement packets
    /// (paper Eq. 3). Zero when nothing was received.
    pub fn utility(&self) -> f64 {
        if self.enh_received == 0 {
            0.0
        } else {
            self.enh_useful as f64 / self.enh_received as f64
        }
    }

    /// Mean useful enhancement packets per frame (`E[Y_j]`).
    pub fn mean_useful_per_frame(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.enh_useful as f64 / self.frames as f64
        }
    }

    /// Observed enhancement-layer packet loss.
    pub fn loss_rate(&self) -> f64 {
        if self.enh_sent == 0 {
            0.0
        } else {
            1.0 - self.enh_received as f64 / self.enh_sent as f64
        }
    }

    /// Merges another accumulator into this one (e.g. across flows).
    pub fn merge(&mut self, other: &UtilityStats) {
        self.frames += other.frames;
        self.base_ok_frames += other.base_ok_frames;
        self.enh_sent += other.enh_sent;
        self.enh_received += other.enh_received;
        self.enh_useful += other.enh_useful;
        self.enh_useful_bytes += other.enh_useful_bytes;
    }
}

/// Frames per [`FrameLog`] chunk: one bit each in [`Chunk::present`].
const CHUNK_FRAMES: usize = 16;

/// The records of 16 consecutive frames, `frame >> 4` in common.
#[derive(Debug, Clone)]
struct Chunk {
    /// Bit `frame & 15` is set once that frame has a record.
    present: u16,
    records: [FrameReception; CHUNK_FRAMES],
}

impl Chunk {
    /// The chunk key and the slot within the chunk of `frame`.
    fn locate(frame: u64) -> (u64, usize) {
        (frame / CHUNK_FRAMES as u64, (frame % CHUNK_FRAMES as u64) as usize)
    }

    fn has(&self, slot: usize) -> bool {
        self.present >> slot & 1 == 1
    }
}

/// Every frame a receiver has seen a packet of, by frame number.
///
/// Records sit in chunks of 16 consecutive frames, so a stream costs 40
/// bytes per frame in 648-byte allocations that are never moved or resized,
/// and a flow's newest chunk holds at most 15 frames it has not reached.
/// A chunk is found by `frame >> 4` in an ordered map, so a frame number
/// — which a wire receiver reads from an untrusted datagram — only ever
/// selects a chunk; nothing is sized by it.
#[derive(Debug, Clone, Default)]
pub struct FrameLog {
    chunks: BTreeMap<u64, Box<Chunk>>,
    len: usize,
}

impl FrameLog {
    /// Bytes of one chunk: 16 records and the occupancy word. A stream's
    /// log is one such allocation per 16 frames, plus its map node.
    pub const CHUNK_BYTES: usize = std::mem::size_of::<Chunk>();

    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames on record.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no frame is on record.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The record of `frame`, if it has one.
    pub fn get(&self, frame: u64) -> Option<&FrameReception> {
        let (key, slot) = Chunk::locate(frame);
        let chunk = self.chunks.get(&key)?;
        chunk.has(slot).then(|| &chunk.records[slot])
    }

    /// The record of `frame`, created by [`FrameReception::with_counts`]
    /// from the other arguments if it has none yet.
    pub fn entry(
        &mut self,
        frame: u64,
        total: u16,
        base_count: u16,
        packet_bytes: u32,
    ) -> &mut FrameReception {
        let (key, slot) = Chunk::locate(frame);
        let chunk = self.chunks.entry(key).or_insert_with(|| {
            let vacant = |_| FrameReception::with_counts(0, 0, 0);
            Box::new(Chunk { present: 0, records: std::array::from_fn(vacant) })
        });
        if !chunk.has(slot) {
            chunk.present |= 1 << slot;
            chunk.records[slot] = FrameReception::with_counts(total, base_count, packet_bytes);
            self.len += 1;
        }
        &mut chunk.records[slot]
    }

    /// The frame numbers and their records, in ascending frame order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &FrameReception)> + '_ {
        self.chunks.iter().flat_map(|(&key, chunk)| {
            let first = key * CHUNK_FRAMES as u64;
            let slots = chunk.records.iter().enumerate();
            slots.filter_map(move |(slot, rec)| {
                chunk.has(slot).then_some((first + slot as u64, rec))
            })
        })
    }

    /// Decodes every frame on record, in ascending frame order (prefix
    /// decoding, paper Section 3).
    pub fn decode_all(&self) -> Vec<DecodedFrame> {
        self.iter().map(|(frame, rec)| rec.decode(frame)).collect()
    }

    /// Aggregate utility over every frame on record (paper Eq. 3).
    pub fn utility(&self) -> UtilityStats {
        let mut stats = UtilityStats::new();
        for (frame, rec) in self.iter() {
            stats.add(&rec.decode(frame));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packetize::packetize;
    use crate::scaling::ScaledFrame;

    fn reception(base: u32, enh: u32) -> FrameReception {
        let frame = ScaledFrame { base_bytes: base, enhancement_bytes: enh };
        let plan = packetize(&frame, enh, 0, 500);
        FrameReception::from_plan(&plan)
    }

    #[test]
    fn all_received_is_fully_useful() {
        let mut rx = reception(1_000, 5_000);
        for i in 0..rx.total {
            rx.mark_received(i);
        }
        let d = rx.decode(0);
        assert!(d.base_ok);
        assert_eq!(d.enh_useful_packets, 10);
        assert_eq!(d.enh_useful_bytes, 5_000);
        assert_eq!(d.utility(), Some(1.0));
    }

    #[test]
    fn gap_truncates_useful_prefix() {
        let mut rx = reception(500, 5_000); // 1 base + 10 enhancement
        rx.mark_received(0); // base
        for i in [1u16, 2, 3, /* gap at 4 */ 5, 6, 7, 8, 9, 10] {
            rx.mark_received(i);
        }
        let d = rx.decode(0);
        assert!(d.base_ok);
        assert_eq!(d.enh_received_packets, 9);
        assert_eq!(d.enh_useful_packets, 3);
        assert_eq!(d.enh_useful_bytes, 1_500);
        assert!((d.utility().unwrap() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn broken_base_zeroes_useful_bytes() {
        let mut rx = reception(1_000, 2_000); // 2 base + 4 enhancement
        rx.mark_received(0); // only half the base
        for i in 2..6u16 {
            rx.mark_received(i);
        }
        let d = rx.decode(0);
        assert!(!d.base_ok);
        assert_eq!(d.enh_useful_bytes, 0);
        // Packet-level prefix accounting is still reported for diagnostics.
        assert_eq!(d.enh_useful_packets, 4);
    }

    #[test]
    fn first_enhancement_lost_means_nothing_useful() {
        let mut rx = reception(500, 2_000);
        rx.mark_received(0);
        for i in 2..5u16 {
            rx.mark_received(i); // index 1 (first enhancement) missing
        }
        let d = rx.decode(0);
        assert_eq!(d.enh_useful_packets, 0);
        assert_eq!(d.utility(), Some(0.0));
    }

    #[test]
    fn a_record_is_40_bytes_whatever_the_frame() {
        assert!(std::mem::size_of::<FrameReception>() <= 40);
        assert!(std::mem::size_of::<Chunk>() <= CHUNK_FRAMES * 40 + 8);
        // The paper's frame — 126 packets, a short tail per segment —
        // fits without a spill.
        let frame = ScaledFrame { base_bytes: 10_400, enhancement_bytes: 51_800 };
        let plan = packetize(&frame, 30_100, 21_700, 500);
        assert_eq!(plan.len(), 126);
        let mut rx = FrameReception::from_plan(&plan);
        for p in &plan {
            rx.mark_received_sized(p.index, p.bytes);
        }
        assert!(rx.spill.is_none());
        assert_eq!(rx.decode(0).enh_useful_bytes, 51_800);
    }

    #[test]
    fn out_of_range_marks_are_ignored() {
        let mut rx = reception(500, 500);
        rx.mark_received(200);
        assert!(!rx.is_received(200));
        assert_eq!(rx.decode(0).enh_received_packets, 0);
    }

    #[test]
    fn utility_stats_merge_equals_single_stream() {
        let d1 = DecodedFrame {
            frame: 0,
            base_ok: true,
            enh_sent_packets: 10,
            enh_received_packets: 9,
            enh_received_bytes: 4_500,
            enh_useful_packets: 7,
            enh_useful_bytes: 3_500,
        };
        let d2 = DecodedFrame { frame: 1, enh_useful_packets: 2, ..d1 };
        let mut whole = UtilityStats::new();
        whole.add(&d1);
        whole.add(&d2);
        let mut a = UtilityStats::new();
        a.add(&d1);
        let mut b = UtilityStats::new();
        b.add(&d2);
        a.merge(&b);
        assert_eq!(a.frames, whole.frames);
        assert_eq!(a.enh_useful, whole.enh_useful);
        assert!((a.utility() - whole.utility()).abs() < 1e-12);
    }

    #[test]
    fn utility_stats_aggregate() {
        let mut stats = UtilityStats::new();
        // Frame 1: everything received.
        let mut rx = reception(500, 2_500);
        for i in 0..rx.total {
            rx.mark_received(i);
        }
        stats.add(&rx.decode(0));
        // Frame 2: half the enhancement received, prefix of 1.
        let mut rx = reception(500, 2_500);
        rx.mark_received(0);
        rx.mark_received(1);
        rx.mark_received(3);
        rx.mark_received(5);
        stats.add(&rx.decode(0));
        assert_eq!(stats.frames, 2);
        assert_eq!(stats.enh_sent, 10);
        assert_eq!(stats.enh_received, 8);
        assert_eq!(stats.enh_useful, 6);
        assert!((stats.utility() - 0.75).abs() < 1e-12);
        assert!((stats.loss_rate() - 0.2).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::packetize::packetize;
    use crate::scaling::ScaledFrame;
    use proptest::prelude::*;

    /// The record as it was before the bitset: a flag and a size per packet.
    /// Kept as the oracle the compact record must agree with.
    struct DenseReception {
        frame: u64,
        total: u16,
        base_count: u16,
        received: Vec<bool>,
        sizes: Vec<u32>,
    }

    impl DenseReception {
        fn from_plan(frame: u64, plan: &[PacketPlan]) -> Self {
            DenseReception {
                frame,
                total: plan.len() as u16,
                base_count: plan.iter().filter(|p| p.segment == Segment::Base).count() as u16,
                received: vec![false; plan.len()],
                sizes: plan.iter().map(|p| p.bytes).collect(),
            }
        }

        fn with_counts(frame: u64, total: u16, base_count: u16, packet_bytes: u32) -> Self {
            DenseReception {
                frame,
                total,
                base_count,
                received: vec![false; total as usize],
                sizes: vec![packet_bytes; total as usize],
            }
        }

        fn mark_received(&mut self, index: u16) {
            if let Some(slot) = self.received.get_mut(index as usize) {
                *slot = true;
            }
        }

        fn mark_received_sized(&mut self, index: u16, bytes: u32) {
            if let Some(slot) = self.received.get_mut(index as usize) {
                *slot = true;
                self.sizes[index as usize] = bytes;
            }
        }

        fn is_received(&self, index: u16) -> bool {
            self.received.get(index as usize).copied().unwrap_or(false)
        }

        fn decode(&self) -> DecodedFrame {
            let base = self.base_count as usize;
            let base_ok = self.received[..base].iter().all(|&r| r);
            let mut useful_packets = 0u32;
            let mut useful_bytes = 0u64;
            let mut counting = true;
            let mut received_packets = 0u32;
            let mut received_bytes = 0u64;
            for i in base..self.total as usize {
                if self.received[i] {
                    received_packets += 1;
                    received_bytes += self.sizes[i] as u64;
                    if counting {
                        useful_packets += 1;
                        useful_bytes += self.sizes[i] as u64;
                    }
                } else {
                    counting = false;
                }
            }
            DecodedFrame {
                frame: self.frame,
                base_ok,
                enh_sent_packets: self.total as u32 - self.base_count as u32,
                enh_received_packets: received_packets,
                enh_received_bytes: received_bytes,
                enh_useful_packets: useful_packets,
                enh_useful_bytes: if base_ok { useful_bytes } else { 0 },
            }
        }
    }

    /// A mark: plain or sized, the index possibly past the frame's end.
    fn marks(max_index: u16) -> impl Strategy<Value = Vec<(bool, u16, u32)>> {
        // Few distinct sizes, so re-marking hits both "same" and "other".
        let size = (0u32..4).prop_map(|k| [500, 500, 120, 0][k as usize]);
        collection::vec((any::<bool>(), 0..max_index, size), 0..400)
    }

    /// Applies `ops` to both records, comparing them after every one.
    fn mark_both(
        ops: Vec<(bool, u16, u32)>,
        compact: &mut FrameReception,
        dense: &mut DenseReception,
    ) {
        for (sized, index, bytes) in ops {
            if sized {
                compact.mark_received_sized(index, bytes);
                dense.mark_received_sized(index, bytes);
            } else {
                compact.mark_received(index);
                dense.mark_received(index);
            }
            assert_agree(compact, dense);
        }
    }

    fn assert_agree(compact: &FrameReception, dense: &DenseReception) {
        prop_assert_eq!((compact.total, compact.base_count), (dense.total, dense.base_count));
        for i in 0..dense.total.saturating_add(3) {
            prop_assert_eq!(compact.is_received(i), dense.is_received(i), "packet {}", i);
        }
        let missing: Vec<u16> = (0..dense.total).filter(|&i| !dense.is_received(i)).collect();
        prop_assert_eq!(compact.missing().collect::<Vec<_>>(), missing);
        prop_assert_eq!(compact.decode(dense.frame), dense.decode());
    }

    proptest! {
        /// Useful packets are always a prefix: useful <= received, and if a
        /// packet at enhancement position k is useful then all positions
        /// before k were received.
        #[test]
        fn useful_is_prefix(
            enh_packets in 1usize..60,
            lost in proptest::collection::vec(any::<bool>(), 61),
        ) {
            let frame = ScaledFrame { base_bytes: 500, enhancement_bytes: (enh_packets as u32) * 500 };
            let plan = packetize(&frame, frame.enhancement_bytes, 0, 500);
            let mut rx = FrameReception::from_plan(&plan);
            rx.mark_received(0); // keep base intact
            let mut first_gap = enh_packets;
            for (k, &was_lost) in lost.iter().enumerate().take(enh_packets) {
                if !was_lost {
                    rx.mark_received((k + 1) as u16);
                } else if first_gap == enh_packets {
                    first_gap = k;
                }
            }
            let d = rx.decode(0);
            prop_assert!(d.enh_useful_packets <= d.enh_received_packets);
            prop_assert_eq!(d.enh_useful_packets as usize, first_gap);
        }

        /// The compact record built from a packetized frame — up to 300
        /// packets, so past the 128 inline flags — agrees with the dense
        /// oracle after every mark.
        #[test]
        fn compact_record_matches_dense_oracle_on_packetized_frames(
            base_bytes in 0u32..3_000,
            yellow_bytes in 0u32..70_000,
            red_bytes in 0u32..70_000,
            packet_bytes in 450u32..1_500,
            ops in marks(320),
        ) {
            let frame = ScaledFrame { base_bytes, enhancement_bytes: yellow_bytes + red_bytes };
            let plan = packetize(&frame, yellow_bytes, red_bytes, packet_bytes);
            let mut compact = FrameReception::from_plan(&plan);
            let mut dense = DenseReception::from_plan(7, &plan);
            assert_agree(&compact, &dense);
            prop_assert!(compact.spill.as_ref().is_none_or(|s| s.odd.is_empty()),
                "a packetized frame has at most one short tail per segment");
            mark_both(ops, &mut compact, &mut dense);
        }

        /// The same for arbitrary plans (any size on any packet, so the odd
        /// sizes spill) and for records built from counts alone.
        #[test]
        fn compact_record_matches_dense_oracle_on_arbitrary_plans(
            sizes in collection::vec(0u32..4, 0..200),
            base in 0usize..200,
            from_counts in any::<bool>(),
            ops in marks(210),
        ) {
            let base = base.min(sizes.len());
            let plan: Vec<PacketPlan> = sizes
                .iter()
                .enumerate()
                .map(|(i, &k)| PacketPlan {
                    index: i as u16,
                    bytes: [500, 499, 120, 0][k as usize],
                    segment: if i < base { Segment::Base } else { Segment::Yellow },
                })
                .collect();
            let (mut compact, mut dense) = if from_counts {
                let (total, base) = (plan.len() as u16, base as u16);
                (
                    FrameReception::with_counts(total, base, 500),
                    DenseReception::with_counts(3, total, base, 500),
                )
            } else {
                (FrameReception::from_plan(&plan), DenseReception::from_plan(3, &plan))
            };
            assert_agree(&compact, &dense);
            mark_both(ops, &mut compact, &mut dense);
        }

        /// The same with sizes that do not fit 16 bits — as odd sizes and as
        /// the common one — and odd sizes past packet 255, so everything a
        /// record cannot hold inline goes to its spill.
        #[test]
        fn compact_record_matches_dense_oracle_on_wide_sizes(
            sizes in collection::vec(0u32..4, 0..300),
            base in 0usize..300,
            from_counts in any::<bool>(),
            ops in collection::vec((any::<bool>(), 0u16..310, 0u32..4), 0..400),
        ) {
            let size = |k: u32| [70_000, 65_535, 65_536, 120][k as usize];
            let base = base.min(sizes.len());
            let plan: Vec<PacketPlan> = sizes
                .iter()
                .enumerate()
                .map(|(i, &k)| PacketPlan {
                    index: i as u16,
                    bytes: size(k),
                    segment: if i < base { Segment::Base } else { Segment::Red },
                })
                .collect();
            let (mut compact, mut dense) = if from_counts {
                let (total, base) = (plan.len() as u16, base as u16);
                (
                    FrameReception::with_counts(total, base, 70_000),
                    DenseReception::with_counts(5, total, base, 70_000),
                )
            } else {
                (FrameReception::from_plan(&plan), DenseReception::from_plan(5, &plan))
            };
            assert_agree(&compact, &dense);
            let ops = ops.into_iter().map(|(sized, index, k)| (sized, index, size(k))).collect();
            mark_both(ops, &mut compact, &mut dense);
        }

        /// The log is a `BTreeMap` keyed by frame number: same `get`, same
        /// insert-if-absent, same `len`, same iteration order, whatever the
        /// arrival order — far-apart and extreme frame numbers included.
        #[test]
        fn frame_log_matches_btreemap(
            arrivals in collection::vec((0u64..6, 0u64..200, 1u16..140, 0u16..140), 0..300),
            probes in collection::vec((0u64..6, 0u64..200), 0..50),
        ) {
            let frame_no = |region: u64, offset: u64| match region {
                0..=2 => offset,
                3 => (1 << 60) + offset,
                4 => u64::MAX - offset,
                _ => offset << 6,
            };
            let mut log = FrameLog::new();
            let mut map: BTreeMap<u64, DenseReception> = BTreeMap::new();
            for (region, offset, total, index) in arrivals {
                let frame = frame_no(region, offset);
                log.entry(frame, total, 1, 500).mark_received(index);
                map.entry(frame)
                    .or_insert_with(|| DenseReception::with_counts(frame, total, 1, 500))
                    .mark_received(index);
                prop_assert_eq!(log.len(), map.len());
            }
            prop_assert_eq!(log.is_empty(), map.is_empty());
            for (region, offset) in probes {
                let frame = frame_no(region, offset);
                prop_assert_eq!(log.get(frame).is_some(), map.contains_key(&frame));
            }
            prop_assert_eq!(log.iter().count(), map.len());
            for ((at, rec), (&frame, dense)) in log.iter().zip(&map) {
                prop_assert_eq!(at, frame);
                assert_agree(rec, dense);
                assert_agree(log.get(frame).expect("on record"), dense);
            }
            let decoded: Vec<DecodedFrame> = map.values().map(DenseReception::decode).collect();
            prop_assert_eq!(log.decode_all(), decoded.clone());
            let mut stats = UtilityStats::new();
            decoded.iter().for_each(|d| stats.add(d));
            prop_assert_eq!(log.utility(), stats);
        }
    }
}
