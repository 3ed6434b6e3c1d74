//! What the wire's budget tests share: `pels loadgen`'s half of the
//! protocol, on `MemHub`.

use pels_netsim::packet::FlowId;
use pels_wire::codec::{packets, WireAck, WireData, WireHello};
use pels_wire::{MemTransport, Transport};
use std::net::SocketAddr;

/// A HELLO from each of flows `1..=flows`: registration, then refresh.
pub fn hello_all(client: &MemTransport, flows: u32, server: SocketAddr) {
    for f in 1..=flows {
        client.send_to(&WireHello { flow: FlowId(f), seq: 0 }.encode(), server).unwrap();
    }
}

/// Answers every data packet waiting at `client` with an ACK echoing its
/// label and rate.
pub fn echo_acks(client: &MemTransport, server: SocketAddr) {
    let mut buf = [0u8; 2048];
    while let Some((n, _)) = client.try_recv(&mut buf).unwrap() {
        for packet in packets(&buf[..n]) {
            let data = WireData::decode(packet.unwrap()).unwrap();
            let ack = WireAck {
                flow: data.flow,
                seq: data.seq,
                sent_at: data.sent_at,
                rate_echo: data.rate_echo,
                feedback: data.feedback,
            };
            client.send_to(&ack.encode(), server).unwrap();
        }
    }
}
