//! The live streaming source: MKC + γ control loops over real datagrams.
//!
//! [`WireSource`] is the wall-clock counterpart of
//! [`pels_core::source::PelsSource`]. It runs the *same* control laws —
//! MKC Eq. 8 on fresh feedback epochs, γ Eq. 4 on FGS loss, red-then-yellow
//! shedding near the base floor, the stale-feedback watchdog — but instead
//! of simulator timers it is a pure `poll(now)` state machine: the caller
//! (a [`Clock`](pels_netsim::clock::Clock)-driven loop) calls
//! [`WireSource::poll`] and the source emits frames on schedule and paces
//! packets with a token bucket refilled at the current MKC rate.

use crate::codec::{peek_kind, WireAck, WireData, WireKind, WireNack};
use crate::transport::Transport;
use pels_core::feedback::EpochFilter;
use pels_core::gamma::{GammaConfig, GammaController};
use pels_core::mkc::{MkcConfig, MkcController};
use pels_core::source::{plan_frame, Shed};
use pels_core::Color;
use pels_fgs::frame::VideoTrace;
use pels_fgs::packetize::Segment;
use pels_netsim::packet::{FlowId, FrameTag};
use pels_netsim::time::{SimDuration, SimTime};
use pels_telemetry::Telemetry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;

/// Configuration of a [`WireSource`].
#[derive(Debug, Clone)]
pub struct WireSourceConfig {
    /// Flow identifier carried in every datagram.
    pub flow: FlowId,
    /// The video being streamed (looped).
    pub trace: VideoTrace,
    /// MKC gains.
    pub mkc: MkcConfig,
    /// γ-controller gains.
    pub gamma: GammaConfig,
    /// Wire packet payload size (paper: 500 bytes).
    pub packet_bytes: u32,
    /// Where data packets go (the wire router).
    pub router: SocketAddr,
    /// Frames kept retransmittable for NACK-driven ARQ; 0 disables ARQ.
    pub arq_frames: u64,
    /// Retransmissions allowed per packet (default 3). A duplicated or
    /// replayed NACK flood can otherwise make the source resend one
    /// packet unboundedly.
    pub retx_limit: u8,
    /// Lifetime retransmission budget for the whole source (default
    /// 65 536); once spent, further NACKs are suppressed and counted.
    pub retx_budget: u64,
}

/// One planned-but-unsent packet of the current frame.
#[derive(Debug, Clone, Copy)]
struct Pending {
    bytes: u32,
    class: u8,
    tag: FrameTag,
}

/// One retransmittable frame: its emission time plus, per packet,
/// `(bytes, class, retransmissions so far)`.
type RetxFrame = (SimTime, Vec<(u32, u8, u8)>);

/// The live streaming source agent.
#[derive(Debug)]
pub struct WireSource<T: Transport> {
    transport: T,
    cfg: WireSourceConfig,
    mkc: MkcController,
    gamma: GammaController,
    filter: EpochFilter,
    frame_idx: u64,
    seq: u64,
    pending: VecDeque<Pending>,
    /// Token bucket for pacing, in bits; refilled at the MKC rate.
    tokens_bits: f64,
    last_poll: Option<SimTime>,
    next_frame_at: Option<SimTime>,
    next_watchdog_at: Option<SimTime>,
    /// When stopped, no new frames are emitted (pending packets still
    /// drain and NACKs are still answered) — used for end-of-run drain.
    stopped: bool,
    /// Retransmission buffer: frame → (emitted at, per-packet
    /// (bytes, class, retransmissions so far)).
    retx_buffer: HashMap<u64, RetxFrame>,
    /// All-zero payload pool, sliced per packet.
    payload_pool: Vec<u8>,
    /// Reused encode buffer: one datagram's worth of capacity serves
    /// every send instead of allocating per packet.
    scratch: Vec<u8>,
    recv_buf: Vec<u8>,
    /// Frames emitted.
    pub frames_sent: u64,
    /// Packets sent per color (green, yellow, red).
    pub sent_by_color: [u64; 3],
    /// Packets abandoned because their frame interval expired unsent.
    pub abandoned_packets: u64,
    /// Frames whose red class was shed near the base floor.
    pub shed_red_frames: u64,
    /// Frames whose whole enhancement was shed at the base floor.
    pub shed_yellow_frames: u64,
    /// Retransmissions performed in response to NACKs.
    pub retransmissions: u64,
    /// NACKs refused by the per-packet retry cap or the lifetime budget.
    pub retx_suppressed: u64,
    /// Datagrams that failed to decode and were dropped.
    pub decode_errors: u64,
    /// Watchdog activations that actually decayed the rate.
    pub stale_decays: u64,
    telemetry: Telemetry,
}

impl<T: Transport> WireSource<T> {
    /// Creates a source sending through `transport`.
    pub fn new(cfg: WireSourceConfig, transport: T) -> Self {
        let mkc = MkcController::new(cfg.mkc);
        let gamma = GammaController::new(cfg.gamma);
        let payload_pool = vec![0u8; cfg.packet_bytes as usize];
        WireSource {
            transport,
            cfg,
            mkc,
            gamma,
            filter: EpochFilter::new(),
            frame_idx: 0,
            seq: 0,
            pending: VecDeque::new(),
            tokens_bits: 0.0,
            last_poll: None,
            next_frame_at: None,
            next_watchdog_at: None,
            stopped: false,
            retx_buffer: HashMap::new(),
            payload_pool,
            scratch: Vec::new(),
            recv_buf: vec![0u8; 2048],
            frames_sent: 0,
            sent_by_color: [0; 3],
            abandoned_packets: 0,
            shed_red_frames: 0,
            shed_yellow_frames: 0,
            retransmissions: 0,
            retx_suppressed: 0,
            decode_errors: 0,
            stale_decays: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; `wire.src.*` metrics record into it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The current congestion-controlled sending rate, bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.mkc.rate_bps()
    }

    /// The current partition fraction γ.
    pub fn gamma(&self) -> f64 {
        self.gamma.gamma()
    }

    /// The MKC controller (staleness state, stationary-rate helper).
    pub fn mkc(&self) -> &MkcController {
        &self.mkc
    }

    /// The address peers reach this source at (ACK/NACK destination).
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Stops emitting new frames; pending packets still drain and NACKs
    /// are still answered. Used by the live runner's end-of-run drain so
    /// in-flight packets are counted without new ones muddying the ratio.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Advances the source to `now`: drains feedback, runs the staleness
    /// watchdog, emits due frames, and paces packets out of the token
    /// bucket.
    ///
    /// `now` must be monotone across calls (any [`Clock`] guarantees this).
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures; datagram loss is not an error.
    ///
    /// [`Clock`]: pels_netsim::clock::Clock
    pub fn poll(&mut self, now: SimTime) -> io::Result<()> {
        self.drain_reverse_path(now)?;
        self.run_watchdog(now);
        let next = *self.next_frame_at.get_or_insert(now);
        if !self.stopped && now >= next {
            self.emit_frame(now);
            let interval = SimDuration::from_secs_f64(self.cfg.trace.frame_interval_secs());
            // Catch-up after a stall re-anchors instead of bursting frames.
            let scheduled = next + interval;
            self.next_frame_at = Some(if scheduled > now { scheduled } else { now + interval });
        }
        self.pace(now)
    }

    fn drain_reverse_path(&mut self, now: SimTime) -> io::Result<()> {
        loop {
            let Some((n, _from)) = self.transport.try_recv(&mut self.recv_buf)? else {
                return Ok(());
            };
            let buf = &self.recv_buf[..n];
            match peek_kind(buf) {
                Ok(WireKind::Ack) => match WireAck::decode(buf) {
                    Ok(ack) if ack.flow == self.cfg.flow => self.apply_feedback(&ack, now),
                    Ok(_) => {}
                    Err(_) => self.on_decode_error(),
                },
                Ok(WireKind::Nack) => match WireNack::decode(buf) {
                    Ok(nack) if nack.flow == self.cfg.flow && self.cfg.arq_frames > 0 => {
                        self.handle_nack(&nack)?;
                    }
                    Ok(_) => {}
                    Err(_) => self.on_decode_error(),
                },
                _ => self.on_decode_error(),
            }
        }
    }

    fn on_decode_error(&mut self) {
        self.decode_errors += 1;
        self.telemetry.counter_add("wire.src.decode_errors", 1);
    }

    fn apply_feedback(&mut self, ack: &WireAck, now: SimTime) {
        let Some(fb) = ack.feedback else { return };
        if !self.filter.accept(&fb) {
            return;
        }
        // Eq. 8 base r(k − D): the rate echoed through the ACK.
        self.mkc.update_from(ack.rate_echo, fb.loss);
        self.mkc.record_fresh(now);
        self.gamma.update(fb.fgs_loss);
        if self.telemetry.is_enabled() {
            let t = now.as_secs_f64();
            self.telemetry.counter_add("wire.src.feedback_epochs", 1);
            self.telemetry.sample("wire.src.rate_kbps", t, self.mkc.rate_bps() / 1000.0);
            self.telemetry.sample("wire.src.gamma", t, self.gamma.gamma());
            self.telemetry.sample("wire.src.fgs_loss", t, fb.fgs_loss);
        }
    }

    fn run_watchdog(&mut self, now: SimTime) {
        let period = self.cfg.mkc.stale_timeout / 4;
        let due = *self.next_watchdog_at.get_or_insert(now + period);
        if now >= due {
            if self.mkc.apply_staleness(now) {
                self.stale_decays += 1;
                self.telemetry.counter_add("wire.src.stale_decays", 1);
                // A full timeout without fresh feedback means the epoch
                // horizon itself may be wrong (a corrupted label that jumped
                // it forward, or a router restart that reset the counter).
                // Re-anchor so the next genuine label is accepted.
                self.filter.reset();
            }
            self.next_watchdog_at = Some(now + period);
        }
    }

    fn emit_frame(&mut self, now: SimTime) {
        // Unsent packets from the previous interval missed their deadline.
        self.abandoned_packets += self.pending.len() as u64;
        self.pending.clear();

        let spec = *self.cfg.trace.frame(self.frame_idx);
        let (plan, shed) = plan_frame(
            &spec,
            self.cfg.trace.fps,
            self.mkc.rate_bps(),
            self.gamma.gamma(),
            self.cfg.packet_bytes,
        );
        match shed {
            Shed::Nothing => {}
            Shed::Red => self.shed_red_frames += 1,
            Shed::Enhancement => self.shed_yellow_frames += 1,
        }
        let total = plan.len() as u16;
        let base = plan.iter().filter(|p| p.segment == Segment::Base).count() as u16;
        for pp in &plan {
            self.pending.push_back(Pending {
                bytes: pp.bytes,
                class: Color::from(pp.segment).class(),
                tag: FrameTag { frame: self.frame_idx, index: pp.index, total, base },
            });
        }
        if self.cfg.arq_frames > 0 {
            let meta =
                plan.iter().map(|pp| (pp.bytes, Color::from(pp.segment).class(), 0u8)).collect();
            self.retx_buffer.insert(self.frame_idx, (now, meta));
            let horizon = self.frame_idx;
            let keep = self.cfg.arq_frames;
            self.retx_buffer.retain(|&f, _| f + keep > horizon);
        }
        self.frame_idx += 1;
        self.frames_sent += 1;
    }

    /// Retransmits one base-layer packet immediately — like the simulator's
    /// zero-delay requeue, a repair jumps the pacing queue (so the next
    /// frame boundary cannot abandon it) but still charges the token
    /// bucket, which may go briefly negative; regular traffic then waits
    /// the debt out, keeping the long-run rate at the MKC value.
    fn handle_nack(&mut self, nack: &WireNack) -> io::Result<()> {
        let Some((emitted_at, meta)) = self.retx_buffer.get_mut(&nack.tag.frame) else {
            return Ok(()); // frame already evicted: the data is gone
        };
        let Some(&mut (bytes, class, ref mut retries)) = meta.get_mut(nack.tag.index as usize)
        else {
            return Ok(());
        };
        // Only the base layer is repairable. Enhancement is prefix-decodable
        // and loss-tolerant by design (red loss *is* the γ signal, Eq. 4),
        // and at the MKC operating point its tail is clipped every interval:
        // repairing it puts the pacing bucket into permanent debt, and each
        // repair displaces ≥ 1 regular packet into abandonment — a
        // self-sustaining NACK storm.
        if class != 0 {
            return Ok(());
        }
        // Bounded ARQ: a duplicated/replayed NACK flood must not turn the
        // source into a packet amplifier. The receiver's own NackTracker
        // already backs off exponentially; these caps are the source-side
        // backstop for whatever a hostile network delivers.
        if *retries >= self.cfg.retx_limit || self.retransmissions >= self.cfg.retx_budget {
            self.retx_suppressed += 1;
            self.telemetry.counter_add(crate::telemetry_names::SRC_RETX_SUPPRESSED, 1);
            return Ok(());
        }
        *retries += 1;
        let was = *emitted_at;
        self.retransmissions += 1;
        self.telemetry.counter_add("wire.src.retransmissions", 1);
        let mut datagram = std::mem::take(&mut self.scratch);
        WireData {
            flow: self.cfg.flow,
            seq: self.seq,
            tag: nack.tag,
            class,
            retransmission: true,
            // The original emission time, so the receiver's delay
            // accounting sees the full recovery latency.
            sent_at: was,
            rate_echo: self.mkc.rate_bps(),
            feedback: None,
            payload: &self.payload_pool[..bytes as usize],
        }
        .encode_into(&mut datagram);
        self.seq += 1;
        self.sent_by_color[class as usize] += 1;
        self.tokens_bits -= f64::from(bytes) * 8.0;
        let res = self.transport.send_to(&datagram, self.cfg.router);
        self.scratch = datagram;
        res
    }

    fn pace(&mut self, now: SimTime) -> io::Result<()> {
        let packet_bits = f64::from(self.cfg.packet_bytes) * 8.0;
        if let Some(last) = self.last_poll {
            let dt = now.duration_since(last).as_secs_f64();
            self.tokens_bits = (self.tokens_bits + self.mkc.rate_bps() * dt).min(2.0 * packet_bits);
        } else {
            self.tokens_bits = packet_bits; // first packet leaves immediately
        }
        self.last_poll = Some(now);

        while let Some(front) = self.pending.front() {
            let cost = f64::from(front.bytes) * 8.0;
            if self.tokens_bits < cost {
                break;
            }
            let Some(p) = self.pending.pop_front() else { break };
            self.tokens_bits -= cost;
            let mut datagram = std::mem::take(&mut self.scratch);
            WireData {
                flow: self.cfg.flow,
                seq: self.seq,
                tag: p.tag,
                class: p.class,
                retransmission: false,
                sent_at: now,
                rate_echo: self.mkc.rate_bps(),
                feedback: None,
                payload: &self.payload_pool[..p.bytes as usize],
            }
            .encode_into(&mut datagram);
            self.seq += 1;
            self.sent_by_color[p.class as usize] += 1;
            let res = self.transport.send_to(&datagram, self.cfg.router);
            self.scratch = datagram;
            res?;
        }
        self.telemetry.gauge_set("wire.src.tokens_bits", self.tokens_bits);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemHub;
    use pels_netsim::packet::{AgentId, Feedback};

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn cfg(router: SocketAddr) -> WireSourceConfig {
        WireSourceConfig {
            flow: FlowId(1),
            trace: VideoTrace::constant(30, 10.0, 1_600, 10_000),
            mkc: MkcConfig::default(),
            gamma: GammaConfig::default(),
            packet_bytes: 500,
            router,
            arq_frames: 8,
            retx_limit: 3,
            retx_budget: 65_536,
        }
    }

    /// Drains every datagram currently queued at `sink`.
    fn drain(sink: &MemTransport) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 2048];
        while let Some((n, _)) = sink.try_recv(&mut buf).unwrap() {
            out.push(buf[..n].to_vec());
        }
        out
    }

    use crate::transport::MemTransport;

    #[test]
    fn paces_at_the_mkc_rate() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let mut src = WireSource::new(cfg(router.local_addr()), hub.endpoint(addr(1)));
        // 1 simulated second at 1 ms polls, no feedback: rate stays at the
        // initial 128 kb/s = 32 packets/s of 500 bytes.
        for ms in 0..=1000u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        let got = drain(&router);
        // 4 green packets per frame at 10 fps = 40 packets in 1 s; the
        // bucket admits ±2 around the exact schedule.
        assert!((38..=42).contains(&got.len()), "{} packets", got.len());
        for d in &got {
            let p = WireData::decode(d).unwrap();
            assert_eq!(p.class, 0, "128 kb/s is base-only");
            assert_eq!(p.feedback, None);
        }
        assert_eq!(src.frames_sent, 11);
    }

    #[test]
    fn feedback_drives_rate_and_gamma() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let src_ep = hub.endpoint(addr(1));
        let mut src = WireSource::new(cfg(router.local_addr()), hub.endpoint(addr(1)));
        src.poll(SimTime::ZERO).unwrap();
        let before = src.rate_bps();
        let ack = WireAck {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            rate_echo: before,
            feedback: Some(Feedback::new(AgentId(9), 1, -1.0, 0.3)),
        };
        src_ep.send_to(&ack.encode(), addr(1)).unwrap();
        src.poll(SimTime::from_nanos(1_000_000)).unwrap();
        // One MKC step from 128k with p=-1: 128k + 20k + 0.5·128k = 212k.
        assert!((src.rate_bps() - 212_000.0).abs() < 1.0, "rate {}", src.rate_bps());
        // γ moved toward p/p_thr = 0.4.
        assert!(src.gamma() < 0.5);
        // A duplicate epoch must not drive a second step.
        src_ep.send_to(&ack.encode(), addr(1)).unwrap();
        src.poll(SimTime::from_nanos(2_000_000)).unwrap();
        assert!((src.rate_bps() - 212_000.0).abs() < 1.0, "epoch filtered");
    }

    #[test]
    fn stale_decay_reanchors_a_poisoned_epoch_horizon() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let src_ep = hub.endpoint(addr(1));
        let mut src = WireSource::new(cfg(router.local_addr()), hub.endpoint(addr(1)));
        src.poll(SimTime::ZERO).unwrap();
        let ack = |epoch: u64, rate: f64| WireAck {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            rate_echo: rate,
            feedback: Some(Feedback::new(AgentId(9), epoch, -1.0, 0.3)),
        };
        // A corrupted-but-decodable label jumps the horizon to u64::MAX:
        // from here on, every genuine epoch looks stale.
        src_ep.send_to(&ack(u64::MAX, src.rate_bps()).encode(), addr(1)).unwrap();
        src.poll(SimTime::from_nanos(1_000_000)).unwrap();
        let poisoned = src.rate_bps();
        src_ep.send_to(&ack(2, poisoned).encode(), addr(1)).unwrap();
        src.poll(SimTime::from_nanos(2_000_000)).unwrap();
        assert!((src.rate_bps() - poisoned).abs() < 1.0, "genuine epoch rejected while poisoned");
        // Starve the watchdog past stale_timeout (300 ms): it decays the
        // rate AND resets the filter so the loop can resynchronize.
        for ms in 3..1_000u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        assert!(src.stale_decays > 0, "watchdog never fired");
        let decayed = src.rate_bps();
        assert!(decayed < poisoned, "decay should have lowered the rate");
        src_ep.send_to(&ack(3, decayed).encode(), addr(1)).unwrap();
        src.poll(SimTime::from_nanos(1_001_000_000)).unwrap();
        assert!(src.rate_bps() > decayed, "post-reset feedback must drive the rate again");
    }

    #[test]
    fn nack_triggers_marked_retransmission() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let src_ep = hub.endpoint(addr(1));
        let mut src = WireSource::new(cfg(router.local_addr()), hub.endpoint(addr(1)));
        // Emit frame 0 and let its packets out.
        for ms in 0..200u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        drain(&router);
        let nack =
            WireNack { flow: FlowId(1), tag: FrameTag { frame: 0, index: 1, total: 4, base: 4 } };
        src_ep.send_to(&nack.encode(), addr(1)).unwrap();
        for ms in 200..400u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        assert_eq!(src.retransmissions, 1);
        let retx: Vec<_> = drain(&router)
            .iter()
            .filter_map(|d| WireData::decode(d).ok().filter(|p| p.retransmission))
            .map(|p| (p.tag.frame, p.tag.index, p.sent_at))
            .collect();
        assert_eq!(retx.len(), 1);
        assert_eq!((retx[0].0, retx[0].1), (0, 1));
        // The retransmission keeps the original emission timestamp.
        assert_eq!(retx[0].2, SimTime::ZERO);
    }

    #[test]
    fn nack_flood_is_capped_per_packet_and_by_budget() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let src_ep = hub.endpoint(addr(1));
        let mut config = cfg(router.local_addr());
        config.retx_limit = 2;
        let mut src = WireSource::new(config, hub.endpoint(addr(1)));
        for ms in 0..200u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        drain(&router);
        // Ten identical NACKs for one packet: only `retx_limit` repairs.
        let nack =
            WireNack { flow: FlowId(1), tag: FrameTag { frame: 0, index: 1, total: 4, base: 4 } };
        for _ in 0..10 {
            src_ep.send_to(&nack.encode(), addr(1)).unwrap();
        }
        src.poll(SimTime::from_nanos(200_000_000)).unwrap();
        assert_eq!(src.retransmissions, 2);
        assert_eq!(src.retx_suppressed, 8);
        // The lifetime budget gates even fresh packets.
        let mut config = cfg(router.local_addr());
        config.retx_budget = 0;
        let mut src = WireSource::new(config, hub.endpoint(addr(4)));
        for ms in 0..200u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        src_ep.send_to(&nack.encode(), addr(4)).unwrap();
        src.poll(SimTime::from_nanos(200_000_000)).unwrap();
        assert_eq!(src.retransmissions, 0);
        assert_eq!(src.retx_suppressed, 1);
    }

    #[test]
    fn stop_halts_new_frames_but_drains_pending() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let mut src = WireSource::new(cfg(router.local_addr()), hub.endpoint(addr(1)));
        src.poll(SimTime::ZERO).unwrap();
        src.stop();
        for ms in 1..=1000u64 {
            src.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        assert_eq!(src.frames_sent, 1, "no frames after stop");
        // Frame 0's four green packets all drained.
        assert_eq!(drain(&router).len(), 4);
    }
}
