//! The decoding client: the socket end of a flow's reception.
//!
//! [`WireReceiver`] is `pels_core::receiver::PelsReceiver` over real
//! datagrams: both drive the one receiver core,
//! [`Reception`], which keeps the frame log, the NACK schedule, the
//! per-color counts and the delays. What is left here is the wire's own:
//! the transport, the HELLO/BYE heartbeat, the walk over the server's
//! coalesced containers, decode errors, and the datagrams — one
//! [`WireAck`] per data packet, carrying the router's feedback label and
//! the server's echoed rate back on the (uncongested) reverse path, and one
//! [`WireNack`] per due request. Only *base-layer* gaps are requested:
//! enhancement is prefix-decodable loss-tolerant data whose tail the router
//! clips by design at the MKC operating point (the server would refuse to
//! repair it).

use crate::codec::{packets, WireAck, WireBye, WireData, WireHello, WireNack};
use crate::serve::RX_SLOT_BYTES;
use crate::transport::Transport;
use pels_core::receiver::{Arrival, Reception};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{SimDuration, SimTime};
use std::io;
use std::net::SocketAddr;
use std::ops::Deref;

/// Configuration of a [`WireReceiver`].
#[derive(Debug, Clone)]
pub struct WireReceiverConfig {
    /// The flow this receiver accepts.
    pub flow: FlowId,
    /// The server: where HELLOs, ACKs, NACKs and the BYE go (the reverse
    /// path bypasses its bottleneck router, like the paper's feedback
    /// channel).
    pub server: SocketAddr,
    /// Wire packet payload size, used to size reassembly buffers.
    pub packet_bytes: u32,
}

/// How often a client refreshes a flow's HELLO: a fifth of
/// [`FLOW_IDLE_TIMEOUT`](crate::serve::FLOW_IDLE_TIMEOUT), so a healthy
/// session survives several consecutive lost heartbeats before eviction.
pub const HELLO_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// The live receiving agent.
///
/// Session liveness: a HELLO into the server's flow table — it streams only
/// to registered flows — on the first poll, so the flow registers before any
/// data arrives, and every [`HELLO_INTERVAL`] after, until the BYE.
#[derive(Debug)]
pub struct WireReceiver<T: Transport> {
    transport: T,
    cfg: WireReceiverConfig,
    rx: Reception,
    /// Datagrams that failed to decode or belonged to another flow.
    pub decode_errors: u64,
    hellos_sent: u64,
    /// When the next HELLO is due; `None` once the BYE has gone.
    next_hello_at: Option<SimTime>,
    recv_buf: Vec<u8>,
}

impl<T: Transport> WireReceiver<T> {
    /// Creates a receiver listening on `transport`.
    pub fn new(cfg: WireReceiverConfig, transport: T) -> Self {
        WireReceiver {
            transport,
            cfg,
            rx: Reception::new(false).with_nack(),
            decode_errors: 0,
            hellos_sent: 0,
            next_hello_at: Some(SimTime::ZERO),
            recv_buf: vec![0u8; RX_SLOT_BYTES],
        }
    }

    /// HELLO heartbeats emitted so far.
    pub fn hellos_sent(&self) -> u64 {
        self.hellos_sent
    }

    /// Ends the stream: a BYE to the server, so its flow-table
    /// entry dies immediately instead of idling out, and no further HELLO
    /// (which would register the flow again). Packets already in flight
    /// are still received and acknowledged.
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures.
    pub fn send_bye(&mut self) -> io::Result<()> {
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
        // Only base-layer packets are worth requesting: enhancement is
        // prefix-decodable loss-tolerant data (and the server would refuse
        // to repair it).
        for tag in self.rx.nacks_due(true) {
            let nack = WireNack { flow: self.cfg.flow, tag };
            self.transport.send_to(&nack.encode(), self.cfg.server)?;
        }
        Ok(())
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
        self.rx.record(
            now,
            Arrival {
                tag: pkt.tag,
                class: pkt.class,
                nominal_bytes: self.cfg.packet_bytes,
                bytes: pkt.payload.len() as u32,
                // From the packet's embedded first emission, so a
                // retransmission counts its full recovery latency.
                delay: now.duration_since(pkt.sent_at),
                retransmission: pkt.retransmission,
                // The wire client plays nothing out: no deadline to miss.
                decodable: true,
            },
        );
        self.transport.send_to(&WireAck::echo(pkt).encode(), self.cfg.server)
    }
}

/// A receiver reads as its [`Reception`]: counts, delays, frames, NACKs.
impl<T: Transport> Deref for WireReceiver<T> {
    type Target = Reception;
    fn deref(&self) -> &Reception {
        &self.rx
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

    fn rx_cfg(server: SocketAddr) -> WireReceiverConfig {
        WireReceiverConfig { flow: FlowId(1), server, packet_bytes: 500 }
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

    /// The datagrams of `kind` waiting at `sink`; the rest (the HELLOs
    /// among them) are drained and dropped.
    fn drain_kind(sink: &MemTransport, kind: WireKind) -> Vec<Vec<u8>> {
        drain(sink).into_iter().filter(|d| peek_kind(d) == Ok(kind)).collect()
    }

    #[test]
    fn acks_every_packet_with_echoed_label() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1)), rx_ep);
        src.send_to(&data(0, 0, 2, 1, 0), addr(3)).unwrap();
        src.send_to(&data(0, 1, 2, 1, 1), addr(3)).unwrap();
        rx.poll(SimTime::from_nanos(5_000_000)).unwrap();
        assert_eq!(rx.frames_seen(), 1);
        assert_eq!(rx.received_by_color, [1, 1, 0]);
        let acks = drain_kind(&src, WireKind::Ack);
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
        let mut rx = WireReceiver::new(rx_cfg(addr(1)), rx_ep);
        // Three data packets in one datagram, as the server's batched path
        // sends them, then a container whose second packet is cut short.
        let mut container = Vec::new();
        for index in 0..3 {
            container.extend_from_slice(&data(0, index, 3, 1, index.min(2) as u8));
        }
        src.send_to(&container, addr(3)).unwrap();
        rx.poll(SimTime::ZERO).unwrap();
        assert_eq!((rx.received_by_color, rx.decode_errors), ([1, 1, 1], 0));
        assert_eq!(
            drain_kind(&src, WireKind::Ack).len(),
            3,
            "one ACK per packet, not per datagram"
        );
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
        let mut rx = WireReceiver::new(rx_cfg(addr(1)), rx_ep);
        // Frame 0 misses packet 1; frames 1–2 advance the horizon past the
        // backoff gate while keeping frame 0 inside the 4-frame NACK window.
        src.send_to(&data(0, 0, 2, 2, 0), addr(3)).unwrap();
        for f in 1..=2 {
            src.send_to(&data(f, 0, 1, 1, 0), addr(3)).unwrap();
        }
        rx.poll(SimTime::ZERO).unwrap();
        let nacks: Vec<_> =
            drain_kind(&src, WireKind::Nack).iter().map(|d| WireNack::decode(d).unwrap()).collect();
        assert_eq!(nacks.len(), 1);
        assert_eq!(nacks[0].tag.frame, 0);
        assert_eq!(nacks[0].tag.index, 1);
        assert_eq!(rx.nacks_sent(), 1);
    }

    #[test]
    fn enhancement_gaps_leave_the_base_nack_budget_whole() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let mut rx = WireReceiver::new(rx_cfg(addr(1)), hub.endpoint(addr(3)));
        // 520 frames that each lose all 64 enhancement packets: two rounds
        // of 64 gaps a frame would be more than the lifetime NACK budget,
        // were gaps the receiver never requests charged against it.
        for frame in 0..520 {
            src.send_to(&data(frame, 0, 65, 1, 0), addr(3)).unwrap();
            rx.poll(SimTime::ZERO).unwrap();
            assert!(drain_kind(&src, WireKind::Nack).is_empty(), "enhancement is not requested");
        }
        // Then a frame that loses its second base packet.
        src.send_to(&data(520, 0, 2, 2, 0), addr(3)).unwrap();
        for frame in 521..=522 {
            src.send_to(&data(frame, 0, 1, 1, 0), addr(3)).unwrap();
        }
        rx.poll(SimTime::ZERO).unwrap();
        let nacks = drain_kind(&src, WireKind::Nack);
        assert_eq!(nacks.len(), 1, "the base gap is requested");
        let tag = WireNack::decode(&nacks[0]).unwrap().tag;
        assert_eq!((tag.frame, tag.index), (520, 1));
        assert_eq!(rx.nacks_sent(), 1);
    }

    #[test]
    fn retransmission_counts_recovery_and_full_latency() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1)), rx_ep);
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
        assert_eq!(rx.recovered_on_time, 1);
        // Delay measured from the original emission, not the retransmit.
        assert!((rx.delays.by_class[0].mean() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn heartbeat_fires_on_first_poll_then_every_interval() {
        let hub = MemHub::new();
        let router = hub.endpoint(addr(2));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(2)), rx_ep);
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
    fn foreign_flow_and_garbage_are_counted_not_crashed() {
        let hub = MemHub::new();
        let src = hub.endpoint(addr(1));
        let rx_ep = hub.endpoint(addr(3));
        let mut rx = WireReceiver::new(rx_cfg(addr(1)), rx_ep);
        let mut foreign = data(0, 0, 1, 1, 0);
        foreign[4..8].copy_from_slice(&2u32.to_be_bytes()); // flow 2
        src.send_to(&foreign, addr(3)).unwrap();
        src.send_to(b"not a pels packet", addr(3)).unwrap();
        rx.poll(SimTime::ZERO).unwrap();
        assert_eq!(rx.frames_seen(), 0);
        assert_eq!(rx.decode_errors, 2);
        assert!(drain_kind(&src, WireKind::Ack).is_empty(), "no ACKs for rejected datagrams");
    }
}
