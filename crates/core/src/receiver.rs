//! The receiving end of a PELS flow, written once for both stacks.
//!
//! [`Reception`] is the sans-I/O receiver core, the receiving counterpart
//! of [`FlowControl`](crate::flow::FlowControl): it records every arriving
//! video packet into its [`FrameLog`] (consumed by the FGS prefix decoder,
//! Section 3), counts packets per color, measures one-way delays per color
//! (the paper's Fig. 8–9), schedules the ARQ comparator's NACKs through its
//! `NackTracker`, and yields the receiver half of a [`FlowReport`] and the
//! delay stats of a telemetry scrape. Both receivers drive it: the
//! simulator's [`PelsReceiver`] agent here, which adds the port, the
//! playout deadline, the starvation probes and one ACK per data packet
//! echoing the router feedback (Section 5.2), and `pels_wire`'s
//! `WireReceiver`, which adds the socket.

use crate::color::Color;
use crate::scenario::FlowReport;
use crate::source::PROBE_FRAME;
use pels_fgs::decoder::{DecodedFrame, FrameLog, FrameReception, UtilityStats};
use pels_netsim::hist::Histogram;
use pels_netsim::packet::{FlowId, FrameTag, Packet, PacketKind};
use pels_netsim::port::Port;
use pels_netsim::sim::{Agent, Context};
use pels_netsim::stats::{DelayRecorder, Summary, TimeSeries};
use pels_netsim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::ops::Deref;

/// Size of the acknowledgment packets, bytes.
pub const ACK_BYTES: u32 = 40;

/// Receiver-side NACKing for the ARQ comparator: a config's
/// `nack: Some(NackConfig {})` runs a `NackTracker`. NACKing has no
/// settings; the struct keeps a config file's `"nack": {…}` meaning on and
/// `"nack": null` off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NackConfig {}

/// How many NACK rounds each frame may trigger. The same value caps how
/// often any single packet may be requested, so a duplicate or late
/// retransmission can never restart a frame's rounds.
const MAX_ROUNDS: u8 = 2;
/// Cap on NACKs per frame per round.
const MAX_PER_ROUND: usize = 64;
/// Frames to wait before the first retry round; the wait doubles every
/// round (exponential backoff).
const BACKOFF_BASE: u64 = 1;
/// Lifetime cap on NACKs a receiver may send, bounding reverse-path load
/// under pathological loss: requests beyond it are not granted.
pub const RETRY_BUDGET: u64 = 65_536;

/// Per-frame retransmission-request bookkeeping.
#[derive(Debug, Clone)]
struct FrameNackState {
    /// Rounds already issued for this frame.
    rounds: u8,
    /// The frame horizon at which the next round may fire (backoff gate).
    next_round_frame: u64,
    /// Per-packet request counts, indexed by packet index within the frame.
    per_packet: Vec<u8>,
}

/// The NACK scheduling state machine of a [`Reception`].
///
/// The tracker decides *which* packets to request; actually building and
/// transmitting the NACK (a simulator [`Packet`] or a wire datagram) is the
/// caller's job — one request per returned [`FrameTag`].
///
/// Round pacing is exponential: round `r` of frame `g` fires only once the
/// (monotone) frame horizon reaches the backoff gate set when round `r−1`
/// fired (`BACKOFF_BASE · 2^r` frames past that horizon). Every request is
/// charged against a per-packet cap of `MAX_ROUNDS` and a lifetime
/// [`RETRY_BUDGET`], so duplicate NACK responses — which re-enter the
/// receive path with *old* frame tags — can neither rewind the window nor
/// reset any counter.
#[derive(Debug, Clone, Default)]
struct NackTracker {
    /// Per-frame NACK state (rounds, backoff gate, per-packet counts).
    state: BTreeMap<u64, FrameNackState>,
    nacks_sent: u64,
}

impl NackTracker {
    /// Returns the frame tags whose packets are due for a retransmission
    /// request at the given frame `horizon`, looking each frame's record
    /// up through `frames`. Only the indices below `base` are requested
    /// when `base_only`, and only requested indices are charged. The caller
    /// must send exactly one NACK per returned tag; the tracker's counters
    /// assume it does.
    ///
    /// `horizon` must be monotone across calls (the highest frame number
    /// seen in any data packet, late retransmissions excluded by the
    /// caller keeping its own running maximum).
    fn due<'a>(
        &mut self,
        horizon: u64,
        base_only: bool,
        frames: impl Fn(u64) -> Option<&'a FrameReception>,
    ) -> Vec<FrameTag> {
        let mut out = Vec::new();
        let lo = horizon.saturating_sub(4);
        for g in lo..horizon {
            let Some(rx) = frames(g) else { continue };
            let (total, base) = (rx.total, rx.base_count);
            let wanted = if base_only { base } else { total };
            // `missing` ascends, so the requested gaps are a prefix of it.
            let mut missing = rx.missing().take_while(|&index| index < wanted).peekable();
            if missing.peek().is_none() {
                continue;
            }
            let st = self.state.entry(g).or_insert_with(|| FrameNackState {
                rounds: 0,
                next_round_frame: g.saturating_add(BACKOFF_BASE),
                per_packet: vec![0u8; wanted as usize],
            });
            if st.rounds >= MAX_ROUNDS || horizon < st.next_round_frame {
                continue;
            }
            let mut sent_this_round = 0usize;
            for index in missing {
                if sent_this_round >= MAX_PER_ROUND || self.nacks_sent >= RETRY_BUDGET {
                    break;
                }
                if st.per_packet.get(index as usize).is_some_and(|&c| c >= MAX_ROUNDS) {
                    continue;
                }
                out.push(FrameTag { frame: g, index, total, base });
                self.nacks_sent += 1;
                if let Some(c) = st.per_packet.get_mut(index as usize) {
                    *c += 1;
                }
                sent_this_round += 1;
            }
            st.rounds += 1;
            st.next_round_frame = horizon.saturating_add(BACKOFF_BASE << st.rounds.min(32));
        }
        // Evict far behind the 4-frame NACK window: a re-created entry can
        // never re-enter the active loop with reset counters because the
        // horizon is monotone.
        self.state.retain(|&f, _| horizon.saturating_sub(f) < 64);
        out
    }
}

/// One video data packet as it reached a receiver.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// The packet's frame tag.
    pub tag: FrameTag,
    /// Its color class (0 green, 1 yellow, 2 red).
    pub class: u8,
    /// The nominal packet size of its frame, bytes: sizes the frame's
    /// record when this packet opens it.
    pub nominal_bytes: u32,
    /// The packet's own size, bytes.
    pub bytes: u32,
    /// One-way delay from its (first) emission.
    pub delay: SimDuration,
    /// Whether it answers a NACK.
    pub retransmission: bool,
    /// Whether it still decodes: `false` past a playout deadline.
    pub decodable: bool,
}

/// The receiver core: what a flow's receiving end knows, recorded from
/// plain inputs and read by both stacks' reports and scrapes.
#[derive(Debug)]
pub struct Reception {
    frames: FrameLog,
    /// NACK generation (ARQ comparator), when enabled.
    nack: Option<NackTracker>,
    /// Highest frame number seen in any data packet. Monotone: late
    /// retransmissions carry old frame tags and must not rewind the NACK
    /// window.
    horizon: u64,
    /// Per-color one-way delay statistics (retransmissions count their full
    /// recovery latency).
    pub delays: DelayRecorder,
    /// Decodable packets received per color (green, yellow, red).
    pub received_by_color: [u64; 3],
    /// Packets that arrived too late to decode, per color.
    pub late_by_color: [u64; 3],
    /// Retransmitted packets received in time to decode.
    pub recovered_on_time: u64,
    /// Retransmitted packets that arrived too late to decode.
    pub recovered_late: u64,
}

impl Reception {
    /// An empty reception without NACKs. `keep_delay_series` retains raw
    /// per-packet delay samples for plotting; aggregates are always kept.
    pub fn new(keep_delay_series: bool) -> Self {
        Reception {
            frames: FrameLog::new(),
            nack: None,
            horizon: 0,
            delays: DelayRecorder::new(keep_delay_series),
            received_by_color: [0; 3],
            late_by_color: [0; 3],
            recovered_on_time: 0,
            recovered_late: 0,
        }
    }

    /// Enables NACK-based retransmission requests (builder style).
    pub fn with_nack(mut self) -> Self {
        self.nack = Some(NackTracker::default());
        self
    }

    /// Records one data packet arriving at `now`. A packet that no longer
    /// decodes is counted and timed but kept out of the frame log.
    pub fn record(&mut self, now: SimTime, a: Arrival) {
        let tag = a.tag;
        self.horizon = self.horizon.max(tag.frame);
        if a.retransmission {
            let recovered =
                if a.decodable { &mut self.recovered_on_time } else { &mut self.recovered_late };
            *recovered += 1;
        }
        let counts =
            if a.decodable { &mut self.received_by_color } else { &mut self.late_by_color };
        if let Some(n) = counts.get_mut(a.class as usize) {
            *n += 1;
        }
        self.delays.record(a.class, now.as_secs_f64(), a.delay.as_secs_f64());
        if a.decodable {
            self.frames
                .entry(tag.frame, tag.total, tag.base, a.nominal_bytes)
                .mark_received_sized(tag.index, a.bytes);
        }
    }

    /// The frame tags due for a NACK at the current frame horizon (none
    /// when NACKs are off), each already charged: the caller sends one
    /// request per tag. With `base_only` only base-layer gaps are
    /// requested.
    pub fn nacks_due(&mut self, base_only: bool) -> Vec<FrameTag> {
        let (horizon, frames) = (self.horizon, &self.frames);
        self.nack.as_mut().map_or_else(Vec::new, |t| t.due(horizon, base_only, |g| frames.get(g)))
    }

    /// NACK requests granted so far (0 when NACKs are off).
    pub fn nacks_sent(&self) -> u64 {
        self.nack.as_ref().map_or(0, |t| t.nacks_sent)
    }

    /// Number of frames with at least one decodable packet.
    pub fn frames_seen(&self) -> usize {
        self.frames.len()
    }

    /// Decodes every frame seen so far, in frame order (prefix decoding,
    /// Section 3: base all-or-nothing, enhancement useful up to the first
    /// gap).
    pub fn decode_all(&self) -> Vec<DecodedFrame> {
        self.frames.decode_all()
    }

    /// Aggregate utility over all frames seen so far.
    pub fn utility(&self) -> UtilityStats {
        self.frames.utility()
    }

    /// The receiver half of a [`FlowReport`] — frames seen, packets
    /// received per color, utility, enhancement loss and the per-color
    /// delays — with the sender half left at its default for the caller to
    /// fill in.
    pub fn flow_report(&self) -> FlowReport {
        let u = self.utility();
        let delay = &self.delays.by_class;
        FlowReport {
            frames_seen: self.frames_seen() as u64,
            received_by_color: self.received_by_color,
            utility: u.utility(),
            enh_loss: u.loss_rate(),
            mean_delay_s: [0, 1, 2].map(|c| delay[c].mean()),
            max_delay_s: [0, 1, 2].map(|c| delay[c].max().filter(|x| x.is_finite()).unwrap_or(0.0)),
            ..FlowReport::default()
        }
    }

    /// The per-color delay stats a scrape publishes: each color's name,
    /// its summary, its histogram and its kept series.
    pub fn delay_stats(
        &self,
    ) -> impl Iterator<Item = (&'static str, &Summary, Option<&Histogram>, &TimeSeries)> {
        Color::ALL.into_iter().map(|color| {
            let (d, class) = (&self.delays, color.class() as usize);
            (color.name(), &d.by_class[class], d.hist_by_class[class].as_ref(), &d.series[class])
        })
    }
}

/// The simulator's receiving agent of a PELS flow.
#[derive(Debug)]
pub struct PelsReceiver {
    flow: FlowId,
    port: Port,
    /// Source agent (learned from the first data packet; NACK destination).
    src_hint: pels_netsim::packet::AgentId,
    rx: Reception,
    /// Playout deadline: packets older than this on arrival are discarded
    /// as undecodable (video frames have strict decoding deadlines —
    /// paper Section 1). `None` = infinite buffer.
    deadline: Option<SimDuration>,
}

impl PelsReceiver {
    /// Creates a receiver answering `flow` through `port` (its access link,
    /// used for the reverse ACK path).
    ///
    /// `keep_delay_series` retains raw per-packet delay samples for
    /// plotting; aggregates are always kept.
    pub fn new(flow: FlowId, port: Port, keep_delay_series: bool) -> Self {
        PelsReceiver {
            flow,
            port,
            src_hint: pels_netsim::packet::AgentId(u32::MAX),
            rx: Reception::new(keep_delay_series),
            deadline: None,
        }
    }

    /// Sets a playout deadline (builder style): packets whose one-way delay
    /// exceeds it are counted in [`Reception::late_by_color`] and do not
    /// contribute to decoding.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Enables NACK-based retransmission requests (builder style; the
    /// source must have ARQ enabled to answer them).
    pub fn with_nack(mut self) -> Self {
        self.rx = self.rx.with_nack();
        self
    }

    /// The flow this receiver serves.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Sends the ACK of `packet`, echoing its feedback label.
    fn ack(&mut self, packet: &Packet, ctx: &mut Context<'_>) {
        let mut ack = Packet::ack_for(packet, ACK_BYTES);
        ack.sent_at = ctx.now;
        self.port.send(ack, ctx);
    }
}

/// A receiver reads as its [`Reception`]: counts, delays, frames, NACKs.
impl Deref for PelsReceiver {
    type Target = Reception;
    fn deref(&self) -> &Reception {
        &self.rx
    }
}

impl Agent for PelsReceiver {
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.kind != PacketKind::Data || packet.flow != self.flow {
            return;
        }
        let Some(tag) = packet.frame() else { return };
        self.src_hint = packet.src;
        if tag.frame == PROBE_FRAME {
            // A starved source probing the path (DESIGN.md §11): solicit a
            // feedback label via the normal ACK path, but keep the probe out
            // of frame accounting — it is not video data, and counting it as
            // a complete one-packet frame would inflate utility.
            self.ack(&packet, ctx);
            return;
        }
        let delay = ctx.now.duration_since(packet.sent_at);
        self.rx.record(
            ctx.now,
            Arrival {
                tag,
                class: packet.class,
                nominal_bytes: packet.size_bytes,
                bytes: packet.size_bytes,
                delay,
                retransmission: packet.is_retransmission(),
                decodable: self.deadline.is_none_or(|d| delay <= d),
            },
        );
        // Every missing packet is worth a request to the simulated source.
        for tag in self.rx.nacks_due(false) {
            let mut nack = Packet::data(self.flow, ctx.self_id, self.src_hint, 40).with_frame(tag);
            nack.kind = PacketKind::Nack;
            nack.sent_at = ctx.now;
            self.port.send(nack, ctx);
        }
        // ACKs flow even for late packets: the feedback label is still
        // fresh, and congestion control must see the path state.
        self.ack(&packet, ctx);
    }

    fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
        self.port.on_tx_complete(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_netsim::disc::{DropTail, QueueLimit};
    use pels_netsim::packet::{AgentId, Feedback, FrameTag};
    use pels_netsim::shard::{Partition, ShardedSimulator};
    use pels_netsim::time::{Rate, SimDuration, SimTime};

    struct AckSink {
        acks: Vec<Packet>,
    }
    impl Agent for AckSink {
        fn on_packet(&mut self, p: Packet, _ctx: &mut Context<'_>) {
            self.acks.push(p);
        }
    }

    /// Delivers a fixed set of tagged packets to the receiver at start.
    struct Feeder {
        rx: AgentId,
        packets: Vec<Packet>,
    }
    impl Agent for Feeder {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for (i, mut p) in self.packets.drain(..).enumerate() {
                p.sent_at = ctx.now;
                ctx.deliver(self.rx, SimDuration::from_millis(10 + i as u64), p);
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
    }

    fn video_packet(frame: u64, index: u16, total: u16, base: u16, class: u8) -> Packet {
        let mut p = Packet::data(FlowId(1), AgentId(2), AgentId(0), 500)
            .with_class(class)
            .with_frame(FrameTag { frame, index, total, base });
        p.set_feedback(Some(Feedback::new(AgentId(5), 3, 0.1, 0.2)));
        p
    }

    /// The receiver `receiver` builds on its ACK port (agent 0), the
    /// [`AckSink`] that port leads to (agent 1) and a [`Feeder`] of
    /// `packets` (agent 2), on one queue.
    fn build_with(
        receiver: impl FnOnce(Port) -> PelsReceiver,
        packets: Vec<Packet>,
    ) -> (ShardedSimulator, AgentId, AgentId) {
        let rx_id = AgentId(0);
        let ack_sink_id = AgentId(1);
        let port = Port::new(
            0,
            ack_sink_id,
            Rate::from_mbps(10.0),
            SimDuration::from_millis(1),
            Box::new(DropTail::new(QueueLimit::Packets(100))),
        );
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(receiver(port)),
            Box::new(AckSink { acks: vec![] }),
            Box::new(Feeder { rx: rx_id, packets }),
        ];
        (ShardedSimulator::new(1, &Partition::serial(3), agents), rx_id, ack_sink_id)
    }

    fn build(packets: Vec<Packet>) -> (ShardedSimulator, AgentId, AgentId) {
        build_with(|port| PelsReceiver::new(FlowId(1), port, true), packets)
    }

    #[test]
    fn records_receptions_and_decodes() {
        // Frame 0: 1 base + 4 enhancement, lose index 3.
        let pkts: Vec<Packet> = [0u16, 1, 2, 4]
            .iter()
            .map(|&i| video_packet(0, i, 5, 1, if i == 0 { 0 } else { 1 }))
            .collect();
        let (mut sim, rx, _acks) = build(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let r = sim.agent::<PelsReceiver>(rx);
        assert_eq!(r.frames_seen(), 1);
        let decoded = r.decode_all();
        assert!(decoded[0].base_ok);
        assert_eq!(decoded[0].enh_received_packets, 3);
        assert_eq!(decoded[0].enh_useful_packets, 2);
        let u = r.utility();
        assert!((u.utility() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn acks_every_data_packet_and_echoes_feedback() {
        let pkts = vec![video_packet(0, 0, 2, 1, 0), video_packet(0, 1, 2, 1, 1)];
        let (mut sim, _rx, acks) = build(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let sink = sim.agent::<AckSink>(acks);
        assert_eq!(sink.acks.len(), 2);
        for a in &sink.acks {
            assert_eq!(a.kind, PacketKind::Ack);
            assert_eq!(a.size_bytes, ACK_BYTES);
            let fb = a.feedback().expect("ACK echoes the feedback label");
            assert_eq!(fb.epoch, 3);
        }
    }

    #[test]
    fn measures_one_way_delay_per_color() {
        let pkts = vec![video_packet(0, 0, 2, 1, 0), video_packet(0, 1, 2, 1, 2)];
        let (mut sim, rx, _acks) = build(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let r = sim.agent::<PelsReceiver>(rx);
        // Feeder delivers with 10 ms and 11 ms one-way delay.
        assert_eq!(r.delays.by_class[0].count(), 1);
        assert!((r.delays.by_class[0].mean() - 0.010).abs() < 1e-9);
        assert_eq!(r.delays.by_class[2].count(), 1);
        assert!((r.delays.by_class[2].mean() - 0.011).abs() < 1e-9);
    }

    #[test]
    fn ignores_foreign_flows_and_acks() {
        let mut foreign = video_packet(0, 0, 1, 1, 0);
        foreign.flow = FlowId(99);
        let mut ack = video_packet(0, 0, 1, 1, 0);
        ack.kind = PacketKind::Ack;
        let (mut sim, rx, acks) = build(vec![foreign, ack]);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let r = sim.agent::<PelsReceiver>(rx);
        assert_eq!((r.received_by_color, r.late_by_color, r.frames_seen()), ([0; 3], [0; 3], 0));
        assert!(sim.agent::<AckSink>(acks).acks.is_empty(), "nothing is acknowledged");
    }

    #[test]
    fn deadline_discards_late_packets_but_still_acks() {
        let on_time = video_packet(0, 0, 2, 1, 0); // delivered at +10 ms
        let late = video_packet(0, 1, 2, 1, 2); // delivered at +11 ms
        let deadline = SimDuration::from_micros(10_500);
        let (mut sim, rx_id, ack_sink_id) = build_with(
            |port| PelsReceiver::new(FlowId(1), port, true).with_deadline(deadline),
            vec![on_time, late],
        );
        sim.run_until(SimTime::from_secs_f64(1.0));
        let r = sim.agent::<PelsReceiver>(rx_id);
        assert_eq!(r.received_by_color[0], 1);
        assert_eq!(r.late_by_color[2], 1, "11 ms > 10.5 ms deadline");
        let d = r.decode_all();
        assert!(d[0].base_ok);
        assert_eq!(d[0].enh_received_packets, 0, "late packet not decodable");
        // Both packets were still ACKed (feedback must flow).
        assert_eq!(sim.agent::<AckSink>(ack_sink_id).acks.len(), 2);
    }

    fn build_nack(packets: Vec<Packet>) -> (ShardedSimulator, AgentId, AgentId) {
        build_with(|port| PelsReceiver::new(FlowId(1), port, true).with_nack(), packets)
    }

    #[test]
    fn nack_rounds_follow_exponential_backoff() {
        // Frame 0 misses index 1 of 3; frames 1..=8 arrive complete.
        let mut pkts = vec![video_packet(0, 0, 3, 1, 0), video_packet(0, 2, 3, 1, 1)];
        for f in 1..=8u64 {
            pkts.push(video_packet(f, 0, 1, 1, 0));
        }
        let (mut sim, rx, acks) = build_nack(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let r = sim.agent::<PelsReceiver>(rx);
        // Round 0 fires at horizon 1, then backoff gates round 1 to
        // horizon 3 (1 + base·2^1); max_rounds = 2 stops it there.
        assert_eq!(r.nacks_sent(), 2, "one NACK per round for the single gap");
        let nacks: Vec<_> =
            sim.agent::<AckSink>(acks).acks.iter().filter(|p| p.kind == PacketKind::Nack).collect();
        assert_eq!(nacks.len(), 2);
        for n in &nacks {
            let tag = n.frame().expect("NACK carries the missing packet's tag");
            assert_eq!((tag.frame, tag.index), (0, 1));
        }
    }

    #[test]
    fn duplicate_late_retx_cannot_reset_nack_rounds() {
        // Satellite regression: a late retransmission carrying an old frame
        // tag used to rewind the NACK window after the per-frame round
        // counter had been evicted, restarting rounds for frames with gaps.
        let mut pkts = vec![video_packet(10, 0, 3, 1, 0), video_packet(10, 2, 3, 1, 1)];
        for f in 11..=30u64 {
            pkts.push(video_packet(f, 0, 1, 1, 0));
        }
        // Duplicate retransmission of frame 10 index 2, arriving last with
        // an old tag (frame 14 window under the legacy gating).
        let mut dup = video_packet(14, 0, 1, 1, 0);
        dup.mark_retransmission();
        pkts.push(dup);
        let (mut sim, rx, _acks) = build_nack(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let r = sim.agent::<PelsReceiver>(rx);
        assert_eq!(
            r.nacks_sent(),
            2,
            "max_rounds is per-packet: the late duplicate must not restart rounds"
        );
    }

    #[test]
    fn retry_budget_suppresses_excess_nacks() {
        // Every frame misses all 64 of its packets, so each grants two
        // rounds of 64 NACKs: 520 frames ask for more than the lifetime
        // budget, which grants exactly its 65 536 and nothing after.
        let rx = FrameReception::with_counts(64, 1, 500);
        let mut tracker = NackTracker::default();
        let mut sent = 0u64;
        for horizon in 1..=520 {
            sent += tracker.due(horizon, false, |_| Some(&rx)).len() as u64;
        }
        assert_eq!(sent, RETRY_BUDGET, "budget caps lifetime NACKs");
        assert_eq!(tracker.nacks_sent, RETRY_BUDGET);
        assert!(tracker.due(521, false, |_| Some(&rx)).is_empty(), "the budget is spent");
    }

    #[test]
    fn base_only_requests_charge_only_the_base() {
        // Two base packets and 62 enhancement packets, all missing: asked
        // for the base only, each round grants and charges the two.
        let rx = FrameReception::with_counts(64, 2, 500);
        let mut tracker = NackTracker::default();
        let due = tracker.due(1, true, |_| Some(&rx));
        assert!(due.iter().map(|t| t.index).eq([0, 1]));
        assert_eq!(tracker.nacks_sent, 2);
    }

    #[test]
    fn a_packet_is_never_requested_on_its_own_arrival() {
        // Frame 1's green overtakes both packets of frame 0, so frame 0's
        // first round is due as soon as its green opens its record. That
        // round asks for the red, which is still missing; the red's own
        // arrival, one millisecond later, must not ask for it again.
        let pkts = vec![
            video_packet(1, 0, 1, 1, 0),
            video_packet(0, 0, 2, 1, 0),
            video_packet(0, 1, 2, 1, 2),
        ];
        let (mut sim, rx, acks) = build_nack(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let nacks: Vec<_> =
            sim.agent::<AckSink>(acks).acks.iter().filter(|p| p.kind == PacketKind::Nack).collect();
        assert_eq!(nacks.len(), 1);
        let tag = nacks[0].frame().expect("NACK carries the missing packet's tag");
        assert_eq!((tag.frame, tag.index), (0, 1));
        // The feeder delivers packet i at 10 + i ms: the red arrives at 12.
        assert_eq!(nacks[0].sent_at, SimTime::from_nanos(11_000_000), "asked before it arrived");
        assert_eq!(sim.agent::<PelsReceiver>(rx).nacks_sent(), 1);
    }

    #[test]
    fn utility_over_multiple_frames() {
        let mut pkts = Vec::new();
        // Frame 0: everything (1 base + 2 enh).
        for i in 0..3u16 {
            pkts.push(video_packet(0, i, 3, 1, if i == 0 { 0 } else { 1 }));
        }
        // Frame 1: enhancement gap at first position.
        pkts.push(video_packet(1, 0, 3, 1, 0));
        pkts.push(video_packet(1, 2, 3, 1, 1));
        let (mut sim, rx, _acks) = build(pkts);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let u = sim.agent::<PelsReceiver>(rx).utility();
        assert_eq!(u.frames, 2);
        assert_eq!(u.enh_received, 3);
        assert_eq!(u.enh_useful, 2);
    }
}
