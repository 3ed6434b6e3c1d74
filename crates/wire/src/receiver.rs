//! The decoding client: reassembly, feedback echo, and NACK-driven ARQ.
//!
//! [`WireReceiver`] mirrors `pels_core::receiver::PelsReceiver` over real
//! datagrams. Every data packet — one or several per datagram, the server
//! coalesces — is recorded into the receiver's [`FrameLog`] and
//! immediately answered with a [`WireAck`] carrying the router's feedback
//! label and the server's echoed rate back on the (uncongested) reverse
//! path. The shared
//! [`NackTracker`](pels_core::receiver::NackTracker) then schedules
//! at-most-`max_rounds` NACK retries per missing packet — the exact ARQ
//! scheduling the simulator uses, reused rather than re-implemented —
//! but only *base-layer* gaps are actually requested: enhancement is
//! prefix-decodable loss-tolerant data whose tail the router clips by
//! design at the MKC operating point (the server would refuse to repair it).

use crate::codec::{packets, WireAck, WireBye, WireData, WireHello, WireNack};
use crate::serve::RX_SLOT_BYTES;
use crate::transport::Transport;
use pels_core::receiver::{NackConfig, NackTracker};
use pels_fgs::decoder::{DecodedFrame, FrameLog, UtilityStats};
use pels_netsim::packet::FlowId;
use pels_netsim::stats::DelayRecorder;
use pels_netsim::time::{SimDuration, SimTime};
use std::io;
use std::net::SocketAddr;

/// Configuration of a [`WireReceiver`].
#[derive(Debug, Clone)]
pub struct WireReceiverConfig {
    /// The flow this receiver accepts.
    pub flow: FlowId,
    /// The server: where HELLOs, ACKs, NACKs and the BYE go (the reverse
    /// path bypasses its bottleneck router, like the paper's feedback
    /// channel).
    pub server: SocketAddr,
    /// ARQ scheduling; `None` disables NACKs.
    pub nack: Option<NackConfig>,
    /// Wire packet payload size, used to size reassembly buffers.
    pub packet_bytes: u32,
    /// Session liveness: a HELLO into the server's flow table — it streams
    /// only to registered flows — on the first poll, so the flow registers
    /// before any data arrives, and every [`HELLO_INTERVAL`] after. Off, the
    /// receiver sends no HELLO and no BYE.
    pub heartbeat: bool,
}

/// How often a client refreshes a flow's HELLO: a fifth of
/// [`FLOW_IDLE_TIMEOUT`](crate::serve::FLOW_IDLE_TIMEOUT), so a healthy
/// session survives several consecutive lost heartbeats before eviction.
pub const HELLO_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// The live receiving agent.
#[derive(Debug)]
pub struct WireReceiver<T: Transport> {
    transport: T,
    cfg: WireReceiverConfig,
    frames: FrameLog,
    nack: Option<NackTracker>,
    max_frame_seen: u64,
    /// One-way delay statistics per color (uses the packet's embedded
    /// `sent_at`, so retransmissions count their full recovery latency).
    pub delays: DelayRecorder,
    /// Packets received per color.
    pub received_by_color: [u64; 3],
    /// Retransmitted packets that arrived (ARQ recoveries).
    pub recovered_packets: u64,
    /// Datagrams that failed to decode or belonged to another flow.
    pub decode_errors: u64,
    nacks_sent: u64,
    hellos_sent: u64,
    next_hello_at: Option<SimTime>,
    recv_buf: Vec<u8>,
}

impl<T: Transport> WireReceiver<T> {
    /// Creates a receiver listening on `transport`.
    pub fn new(cfg: WireReceiverConfig, transport: T) -> Self {
        let nack = cfg.nack.map(|_| NackTracker::default());
        let next_hello_at = cfg.heartbeat.then_some(SimTime::ZERO);
        WireReceiver {
            transport,
            cfg,
            frames: FrameLog::new(),
            nack,
            max_frame_seen: 0,
            delays: DelayRecorder::new(false),
            received_by_color: [0; 3],
            recovered_packets: 0,
            decode_errors: 0,
            nacks_sent: 0,
            hellos_sent: 0,
            next_hello_at,
            recv_buf: vec![0u8; RX_SLOT_BYTES],
        }
    }

    /// The address the router should forward data packets to.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Distinct frames with at least one packet received.
    pub fn frames_seen(&self) -> usize {
        self.frames.len()
    }

    /// Decodes every frame seen so far, in frame order (FGS semantics:
    /// base all-or-nothing, enhancement useful up to the first gap).
    pub fn decode_all(&self) -> Vec<DecodedFrame> {
        self.frames.decode_all()
    }

    /// Aggregate decode utility over all frames seen.
    pub fn utility(&self) -> UtilityStats {
        self.frames.utility()
    }

    /// NACKs actually emitted so far (base-layer requests only).
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// HELLO heartbeats emitted so far.
    pub fn hellos_sent(&self) -> u64 {
        self.hellos_sent
    }

    /// Ends the stream: a BYE to the server, so its flow-table
    /// entry dies immediately instead of idling out, and no further HELLO
    /// (which would register the flow again). Packets already in flight
    /// are still received and acknowledged. A no-op when heartbeats are
    /// disabled.
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures.
    pub fn send_bye(&mut self) -> io::Result<()> {
        if !self.cfg.heartbeat {
            return Ok(());
        }
        self.next_hello_at = None;
        let bye = WireBye { flow: self.cfg.flow }.encode();
        self.transport.send_to(&bye, self.cfg.server)
    }

    fn send_due_hello(&mut self, now: SimTime) -> io::Result<()> {
        let Some(due) = self.next_hello_at else { return Ok(()) };
        if now < due {
            return Ok(());
        }
        let hello = WireHello { flow: self.cfg.flow, seq: self.hellos_sent }.encode();
        self.transport.send_to(&hello, self.cfg.server)?;
        self.hellos_sent += 1;
        self.next_hello_at = Some(now.saturating_add(HELLO_INTERVAL));
        Ok(())
    }

    /// Advances the receiver to `now`: ingests data packets (ACKing each)
    /// and issues any due NACKs.
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures.
    pub fn poll(&mut self, now: SimTime) -> io::Result<()> {
        // Heartbeat first: in strict-flow topologies the router must know
        // the flow before the first data packet needs forwarding.
        self.send_due_hello(now)?;
        // The buffer is taken out for the drain so the decoded packet's
        // zero-copy payload borrow does not conflict with `&mut self`.
        let mut buf = std::mem::take(&mut self.recv_buf);
        let res = self.drain(&mut buf, now);
        self.recv_buf = buf;
        res?;
        self.issue_nacks()
    }

    fn drain(&mut self, buf: &mut [u8], now: SimTime) -> io::Result<()> {
        loop {
            let Some((n, _from)) = self.transport.try_recv(buf)? else {
                return Ok(());
            };
            for packet in packets(&buf[..n]) {
                // Anything but this flow's data — a malformed head, another
                // kind, another flow — is counted and skipped.
                match packet.and_then(WireData::decode) {
                    Ok(pkt) if pkt.flow == self.cfg.flow => self.on_data(&pkt, now)?,
                    _ => self.decode_errors += 1,
                }
            }
        }
    }

    fn on_data(&mut self, pkt: &WireData<'_>, now: SimTime) -> io::Result<()> {
        let tag = pkt.tag;
        self.max_frame_seen = self.max_frame_seen.max(tag.frame);
        self.frames
            .entry(tag.frame, tag.total, tag.base, self.cfg.packet_bytes)
            .mark_received_sized(tag.index, pkt.payload.len() as u32);
        let class = pkt.class.min(2);
        self.received_by_color[class as usize] += 1;
        let delay_s = now.duration_since(pkt.sent_at).as_secs_f64();
        self.delays.record(class, now.as_secs_f64(), delay_s);
        if pkt.retransmission {
            self.recovered_packets += 1;
        }
        let ack = WireAck {
            flow: pkt.flow,
            seq: pkt.seq,
            sent_at: pkt.sent_at,
            rate_echo: pkt.rate_echo,
            feedback: pkt.feedback,
        }
        .encode();
        self.transport.send_to(&ack, self.cfg.server)
    }

    fn issue_nacks(&mut self) -> io::Result<()> {
        let Some(tracker) = self.nack.as_mut() else { return Ok(()) };
        for tag in tracker.due(self.max_frame_seen, |g| self.frames.get(g)) {
            // Only base-layer packets are worth requesting: enhancement is
            // prefix-decodable loss-tolerant data (and the server would
            // refuse to repair it).
            if tag.index >= tag.base {
                continue;
            }
            let nack = WireNack { flow: self.cfg.flow, tag };
            self.transport.send_to(&nack.encode(), self.cfg.server)?;
            self.nacks_sent += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{peek_kind, WireKind};
    use crate::transport::{MemHub, MemTransport};
    use pels_netsim::packet::{AgentId, Feedback, FrameTag};

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn rx_cfg(server: SocketAddr, nack: Option<NackConfig>) -> WireReceiverConfig {
        WireReceiverConfig { flow: FlowId(1), server, nack, packet_bytes: 500, heartbeat: false }
    }

    fn data(frame: u64, index: u16, total: u16, base: u16, class: u8) -> Vec<u8> {
        WireData {
            flow: FlowId(1),
            seq: frame * u64::from(total) + u64::from(index),
            tag: FrameTag { frame, index, total, base },
            class,
            retransmission: false,
            sent_at: SimTime::ZERO,
            rate_echo: 128_000.0,
            feedback: Some(Feedback::new(AgentId(1), frame + 1, 0.1, 0.2)),
            payload: &[0u8; 100],
        }
        .encode()
    }

    fn drain(sink: &MemTransport) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut buf = [0u8; 2048];
        while let Some((n, _)) = sink.try_recv(&mut buf).unwrap() {
            out.push(buf[..n].to_vec());
        }
        out
    }

    #[test]
    fn acks_every_packet_with_echoed_label() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1), None), rx_ep);
        src.send_to(&data(0, 0, 2, 1, 0), addr(3)).unwrap();
        src.send_to(&data(0, 1, 2, 1, 1), addr(3)).unwrap();
        rx.poll(SimTime::from_nanos(5_000_000)).unwrap();
        assert_eq!(rx.frames_seen(), 1);
        assert_eq!(rx.received_by_color, [1, 1, 0]);
        let acks = drain(&src);
        assert_eq!(acks.len(), 2);
        let ack = WireAck::decode(&acks[0]).unwrap();
        assert_eq!(ack.rate_echo, 128_000.0);
        let fb = ack.feedback.expect("label echoed");
        assert_eq!(fb.router, AgentId(1));
        assert!((fb.loss - 0.1).abs() < 1e-12);
        // One-way delay (5 ms) was recorded against the green class.
        assert_eq!(rx.delays.by_class[0].count(), 1);
    }

    #[test]
    fn coalesced_container_is_walked_packet_by_packet() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1), None), rx_ep);
        // Three data packets in one datagram, as the server's batched path
        // sends them, then a container whose second packet is cut short.
        let mut container = Vec::new();
        for index in 0..3 {
            container.extend_from_slice(&data(0, index, 3, 1, index.min(2) as u8));
        }
        src.send_to(&container, addr(3)).unwrap();
        rx.poll(SimTime::ZERO).unwrap();
        assert_eq!((rx.received_by_color, rx.decode_errors), ([1, 1, 1], 0));
        assert_eq!(drain(&src).len(), 3, "one ACK per packet, not per datagram");
        let one = data(1, 0, 2, 1, 0).len();
        src.send_to(&container[..one + 10], addr(3)).unwrap();
        rx.poll(SimTime::ZERO).unwrap();
        assert_eq!((rx.received_by_color, rx.decode_errors), ([2, 1, 1], 1));
    }

    #[test]
    fn missing_packet_in_older_frame_triggers_nack() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1), Some(NackConfig::default())), rx_ep);
        // Frame 0 misses packet 1; frames 1–2 advance the horizon past the
        // backoff gate while keeping frame 0 inside the 4-frame NACK window.
        src.send_to(&data(0, 0, 2, 2, 0), addr(3)).unwrap();
        for f in 1..=2 {
            src.send_to(&data(f, 0, 1, 1, 0), addr(3)).unwrap();
        }
        rx.poll(SimTime::ZERO).unwrap();
        let nacks: Vec<_> = drain(&src)
            .iter()
            .filter(|d| peek_kind(d) == Ok(WireKind::Nack))
            .map(|d| WireNack::decode(d).unwrap())
            .collect();
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0].tag.frame, 0);
        assert_eq!(nacks[0].tag.index, 1);
        assert_eq!(rx.nacks_sent(), 1);
    }

    #[test]
    fn retransmission_counts_recovery_and_full_latency() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1), None), rx_ep);
        let retx = WireData {
            flow: FlowId(1),
            seq: 9,
            tag: FrameTag { frame: 0, index: 0, total: 1, base: 1 },
            class: 0,
            retransmission: true,
            sent_at: SimTime::ZERO,
            rate_echo: 128_000.0,
            feedback: None,
            payload: &[0u8; 100],
        }
        .encode();
        src.send_to(&retx, addr(3)).unwrap();
        rx.poll(SimTime::from_secs_f64(0.25)).unwrap();
        assert_eq!(rx.recovered_packets, 1);
        // Delay measured from the original emission, not the retransmit.
        assert!((rx.delays.by_class[0].mean() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn heartbeat_fires_on_first_poll_then_every_interval() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let rx_ep = hub.endpoint(addr(3));
        let cfg = WireReceiverConfig { heartbeat: true, ..rx_cfg(addr(2), None) };
        let mut rx = WireReceiver::new(cfg, rx_ep);
        // First poll emits immediately; polling again inside the interval
        // does not.
        rx.poll(SimTime::ZERO).unwrap();
        rx.poll(SimTime::from_nanos(50_000_000)).unwrap();
        assert_eq!(rx.hellos_sent(), 1);
        rx.poll(SimTime::from_nanos(100_000_000)).unwrap();
        rx.poll(SimTime::from_nanos(250_000_000)).unwrap();
        assert_eq!(rx.hellos_sent(), 3);
        let hellos: Vec<_> = drain(&router).iter().map(|d| WireHello::decode(d).unwrap()).collect();
        assert_eq!(hellos.len(), 3);
        assert_eq!(hellos[0], WireHello { flow: FlowId(1), seq: 0 });
        assert_eq!(hellos[2].seq, 2);
        // BYE goes to the same address, and ends the heartbeat with it.
        rx.send_bye().unwrap();
        rx.poll(SimTime::from_nanos(900_000_000)).unwrap();
        let byes = drain(&router);
        assert_eq!(byes.len(), 1);
        assert_eq!(WireBye::decode(&byes[0]).unwrap().flow, FlowId(1));
    }

    #[test]
    fn heartbeat_off_means_silence() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(2), None), rx_ep);
        rx.poll(SimTime::ZERO).unwrap();
        rx.poll(SimTime::from_secs_f64(10.0)).unwrap();
        rx.send_bye().unwrap();
        assert_eq!(rx.hellos_sent(), 0);
        assert!(drain(&router).is_empty());
    }

    #[test]
    fn foreign_flow_and_garbage_are_counted_not_crashed() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1), None), rx_ep);
        let mut foreign = data(0, 0, 1, 1, 0);
        foreign[4..8].copy_from_slice(&2u32.to_be_bytes()); // flow 2
        src.send_to(&foreign, addr(3)).unwrap();
        src.send_to(b"not a pels packet", addr(3)).unwrap();
        rx.poll(SimTime::ZERO).unwrap();
        assert_eq!(rx.frames_seen(), 0);
        assert_eq!(rx.decode_errors, 2);
        assert!(drain(&src).is_empty(), "no ACKs for rejected datagrams");
    }
}
