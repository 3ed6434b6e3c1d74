//! Packets and their headers.
//!
//! A [`Packet`] is a plain struct: in a simulator, protocol headers are just
//! fields. The fields are deliberately a superset of what every subsystem
//! needs — e.g. [`Packet::class`] drives priority classification inside queue
//! disciplines, and [`Packet::feedback`] carries the router-computed
//! congestion label `(router id, epoch z, p)` of the PELS framework (the
//! paper's Section 5.2).

use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an agent (host or router) registered with the simulator.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AgentId(pub u32);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

/// Identifier of an end-to-end flow.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// Application payload (video or cross-traffic data).
    Data,
    /// An acknowledgment travelling back to the source.
    Ack,
    /// A negative acknowledgment requesting retransmission of the packet
    /// identified by the frame tag (used by the ARQ comparator).
    Nack,
}

/// Congestion feedback label `(router ID, epoch z, packet loss p)` stamped by
/// AQM routers into every passing packet (paper Eq. 11 and Section 5.2).
///
/// Two loss figures travel together:
///
/// * [`Feedback::loss`] — Eq. 11's `p = (R - C)/R` over *all* traffic of the
///   queue, **signed**: negative values signal spare capacity, which is what
///   lets Kelly-style control claim bandwidth multiplicatively (the
///   "exponential" ramp of the paper's Fig. 9).
/// * [`Feedback::fgs_loss`] — the loss borne by the FGS *enhancement* layer
///   (classes yellow/red). Strict priority protects green, so all overload
///   falls on the enhancement layer; the γ-controller (Eq. 4) is defined on
///   exactly this quantity ("the measured average packet loss in the entire
///   FGS layer", Section 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Feedback {
    /// Identifier of the router that produced this label.
    pub router: AgentId,
    /// The router's local epoch number `z`; sources ignore stale epochs.
    pub epoch: u64,
    /// Signed total-queue loss `p = (R - C)/R`, in `(-inf, 1)`.
    pub loss: f64,
    /// Enhancement-layer (FGS) loss, in `[0, 1]`.
    pub fgs_loss: f64,
}

impl Feedback {
    /// Creates a feedback label.
    ///
    /// # Panics
    ///
    /// Panics if `loss >= 1`, `fgs_loss` is outside `[0, 1]`, or either is
    /// not finite.
    pub fn new(router: AgentId, epoch: u64, loss: f64, fgs_loss: f64) -> Self {
        assert!(loss.is_finite() && loss < 1.0, "invalid loss value: {loss}");
        assert!(
            fgs_loss.is_finite() && (0.0..=1.0).contains(&fgs_loss),
            "invalid fgs loss value: {fgs_loss}"
        );
        Feedback { router, epoch, loss, fgs_loss }
    }
}

/// Position of a packet inside a video frame (used by the FGS decoder to
/// reconstruct per-frame reception maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrameTag {
    /// Frame index within the flow (0-based).
    pub frame: u64,
    /// Packet index within the frame (0-based; base-layer packets first).
    pub index: u16,
    /// Total packets this frame was transmitted with.
    pub total: u16,
    /// How many of those packets carry the base layer.
    pub base: u16,
}

/// Bits of [`Packet`]'s flags byte.
const HAS_FRAME: u8 = 1;
const HAS_FEEDBACK: u8 = 2;
const RETRANSMISSION: u8 = 4;

/// A simulated packet.
///
/// The frame tag and the feedback label are stored field by field, each
/// present when its bit in one flags byte is set, so a packet is 88 bytes
/// rather than the 120 two `Option`s of their padded structs would make it.
/// [`Packet::frame`] and [`Packet::feedback`] return them whole.
///
/// # Examples
///
/// ```
/// use pels_netsim::packet::{Packet, PacketKind, FlowId, AgentId};
///
/// let pkt = Packet::data(FlowId(1), AgentId(0), AgentId(3), 500);
/// assert_eq!(pkt.size_bytes, 500);
/// assert_eq!(pkt.kind, PacketKind::Data);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Packet {
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Originating agent.
    pub src: AgentId,
    /// Destination agent (routers forward based on this field).
    pub dst: AgentId,
    /// Size on the wire, bytes (headers included).
    pub size_bytes: u32,
    /// Payload type.
    pub kind: PacketKind,
    /// Priority class used by classifying queue disciplines.
    /// Convention in this workspace: 0 = green, 1 = yellow, 2 = red,
    /// 3 = best-effort Internet traffic.
    pub class: u8,
    /// Per-flow sequence number; on a TCP ACK, the cumulative
    /// acknowledgment (the next sequence number the sink expects).
    pub seq: u64,
    /// Time the packet left its source.
    pub sent_at: SimTime,
    /// The sender's rate (bits/s) when this packet left the source, echoed
    /// back in ACKs. MKC applies its update to this *old* rate — the
    /// `r(k − D)` base of Eq. 8, which is what makes its stability
    /// independent of feedback delay (paper reference [34]).
    pub rate_echo: f64,
    /// `HAS_FRAME`, `HAS_FEEDBACK` and `RETRANSMISSION`. The fields of an
    /// absent tag or label are zero.
    flags: u8,
    /// The video-frame tag's fields ([`FrameTag`]).
    frame_no: u64,
    index: u16,
    total: u16,
    base: u16,
    /// The feedback label's fields ([`Feedback`]).
    router: AgentId,
    epoch: u64,
    loss: f64,
    fgs_loss: f64,
}

impl Packet {
    /// Creates a data packet with default class 3 (best-effort).
    pub fn data(flow: FlowId, src: AgentId, dst: AgentId, size_bytes: u32) -> Self {
        Packet {
            flow,
            src,
            dst,
            size_bytes,
            kind: PacketKind::Data,
            class: 3,
            seq: 0,
            sent_at: SimTime::ZERO,
            rate_echo: 0.0,
            flags: 0,
            frame_no: 0,
            index: 0,
            total: 0,
            base: 0,
            router: AgentId(0),
            epoch: 0,
            loss: 0.0,
            fgs_loss: 0.0,
        }
    }

    /// Creates an ACK for `data`, addressed back to its source.
    ///
    /// The ACK echoes the data packet's frame tag and feedback label, so
    /// that the source receives the freshest router state (paper Section
    /// 5.2), but is no retransmission itself.
    pub fn ack_for(data: &Packet, size_bytes: u32) -> Self {
        Packet {
            src: data.dst,
            dst: data.src,
            size_bytes,
            kind: PacketKind::Ack,
            sent_at: SimTime::ZERO,
            flags: data.flags & !RETRANSMISSION,
            ..data.clone()
        }
    }

    /// Sets the priority class (builder style).
    pub fn with_class(mut self, class: u8) -> Self {
        self.class = class;
        self
    }

    /// Sets the per-flow sequence number (builder style).
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Sets the frame tag (builder style).
    pub fn with_frame(mut self, tag: FrameTag) -> Self {
        self.flags |= HAS_FRAME;
        (self.frame_no, self.index, self.total, self.base) =
            (tag.frame, tag.index, tag.total, tag.base);
        self
    }

    /// Video-frame tag, when the packet carries FGS data.
    pub fn frame(&self) -> Option<FrameTag> {
        (self.flags & HAS_FRAME != 0).then_some(FrameTag {
            frame: self.frame_no,
            index: self.index,
            total: self.total,
            base: self.base,
        })
    }

    /// Congestion feedback stamped by routers along the path (data packets)
    /// or echoed back to the source (ACKs).
    pub fn feedback(&self) -> Option<Feedback> {
        (self.flags & HAS_FEEDBACK != 0).then_some(Feedback {
            router: self.router,
            epoch: self.epoch,
            loss: self.loss,
            fgs_loss: self.fgs_loss,
        })
    }

    /// Replaces the feedback label, or removes it.
    pub fn set_feedback(&mut self, label: Option<Feedback>) {
        let none = Feedback { router: AgentId(0), epoch: 0, loss: 0.0, fgs_loss: 0.0 };
        let Feedback { router, epoch, loss, fgs_loss } = label.unwrap_or(none);
        (self.router, self.epoch, self.loss, self.fgs_loss) = (router, epoch, loss, fgs_loss);
        self.flags =
            if label.is_some() { self.flags | HAS_FEEDBACK } else { self.flags & !HAS_FEEDBACK };
    }

    /// Whether this data packet repeats one sent before (answering a NACK);
    /// its `sent_at` is then the original frame emission time.
    pub fn is_retransmission(&self) -> bool {
        self.flags & RETRANSMISSION != 0
    }

    /// Marks this data packet as a retransmission.
    pub fn mark_retransmission(&mut self) {
        self.flags |= RETRANSMISSION;
    }

    /// Applies a router's feedback label using the *max-loss override* rule:
    /// the label in the header is replaced only if the new label reports
    /// strictly larger loss, or if no label is present yet, or if the label
    /// belongs to the same router (which refreshes its own epoch).
    ///
    /// This implements the multi-bottleneck rule of Section 5.2: "each router
    /// compares its `p_l` with that inside arriving packets and overrides the
    /// existing value only if its packet loss is larger".
    pub fn stamp_feedback(&mut self, label: Feedback) {
        if self.flags & HAS_FEEDBACK == 0 || self.router == label.router || label.loss > self.loss {
            self.set_feedback(Some(label));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt() -> Packet {
        Packet::data(FlowId(7), AgentId(1), AgentId(2), 500)
    }

    #[test]
    fn data_constructor_defaults() {
        let p = pkt();
        assert_eq!(p.kind, PacketKind::Data);
        assert_eq!(p.class, 3);
        assert!(p.feedback().is_none());
    }

    #[test]
    fn ack_reverses_direction_and_echoes_feedback() {
        let mut p = pkt().with_seq(9);
        p.stamp_feedback(Feedback::new(AgentId(5), 3, 0.25, 0.3));
        let ack = Packet::ack_for(&p, 40);
        assert_eq!(ack.src, p.dst);
        assert_eq!(ack.dst, p.src);
        assert_eq!(ack.kind, PacketKind::Ack);
        assert_eq!(ack.seq, 9);
        let fb = ack.feedback().expect("ack echoes feedback");
        assert_eq!(fb.epoch, 3);
        assert_eq!(fb.router, AgentId(5));
    }

    #[test]
    fn a_packet_is_at_most_88_bytes() {
        // Every hop copies a packet into the arena and out again, and the
        // cross-shard lane and the shard outboxes hold them by value.
        assert!(std::mem::size_of::<Packet>() <= 88, "{}", std::mem::size_of::<Packet>());
    }

    #[test]
    fn ack_echoes_the_tag_but_is_no_retransmission() {
        let tag = FrameTag { frame: 3, index: 5, total: 126, base: 21 };
        let mut p = pkt().with_frame(tag);
        assert!(!p.is_retransmission());
        p.mark_retransmission();
        assert!(p.is_retransmission());
        let ack = Packet::ack_for(&p, 40);
        assert_eq!(ack.frame(), Some(tag));
        assert!(!ack.is_retransmission() && ack.feedback().is_none());
        // A removed label leaves the packet as if it never had one.
        let before = p.clone();
        p.set_feedback(Some(Feedback::new(AgentId(4), 2, 0.5, 0.5)));
        p.set_feedback(None);
        assert_eq!(p, before);
    }

    #[test]
    fn stamp_feedback_max_override() {
        let mut p = pkt();
        p.stamp_feedback(Feedback::new(AgentId(1), 1, 0.10, 0.1));
        // A different router with smaller loss must NOT override.
        p.stamp_feedback(Feedback::new(AgentId(2), 8, 0.05, 0.05));
        assert_eq!(p.feedback().unwrap().router, AgentId(1));
        // A different router with larger loss overrides.
        p.stamp_feedback(Feedback::new(AgentId(2), 9, 0.20, 0.2));
        assert_eq!(p.feedback().unwrap().router, AgentId(2));
        // The same router always refreshes its own label, even downward.
        p.stamp_feedback(Feedback::new(AgentId(2), 10, 0.01, 0.0));
        let fb = p.feedback().unwrap();
        assert_eq!(fb.epoch, 10);
        assert!((fb.loss - 0.01).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "invalid loss")]
    fn feedback_rejects_invalid_loss() {
        let _ = Feedback::new(AgentId(0), 0, 1.5, 0.0);
    }

    #[test]
    fn builder_setters() {
        let tag = FrameTag { frame: 3, index: 5, total: 126, base: 21 };
        let p = pkt().with_class(1).with_seq(77).with_frame(tag);
        assert_eq!(p.class, 1);
        assert_eq!(p.seq, 77);
        assert_eq!(p.frame(), Some(tag));
    }
}
