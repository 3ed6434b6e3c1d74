//! Property tests for the fault-injecting transport: the whole fault
//! decision sequence is a pure function of the spec (seed determinism),
//! and fault-mutated frames never panic the server loop or the receiver —
//! corruption, truncation, and duplication land in counted rejects, not
//! crashes.

use std::net::SocketAddr;
use std::sync::Arc;

use pels_netsim::clock::ManualClock;
use pels_netsim::packet::{AgentId, Feedback, FlowId, FrameTag};
use pels_netsim::time::{SimDuration, SimTime};
use pels_wire::codec::{WireAck, WireBye, WireData, WireHello, WireNack};
use pels_wire::faults::{Blackout, FaultDirection, FaultWindow, WireFaultPolicy, WireFaultSpec};
use pels_wire::{
    FaultTransport, MemHub, ServeConfig, ServeLoop, Transport, WireReceiver, WireReceiverConfig,
};
use proptest::prelude::*;

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{port}").parse().unwrap()
}

/// Plays `payloads` through a faulted sender at a fixed 2 ms cadence and
/// returns the byte sequence the sink observed plus the fault totals.
fn play(spec: &WireFaultSpec, payloads: &[Vec<u8>]) -> (Vec<Vec<u8>>, pels_wire::WireFaultTotals) {
    let hub = MemHub::new();
    let clock = Arc::new(ManualClock::new());
    let sink = hub.endpoint(addr(2));
    let tx = FaultTransport::new(hub.endpoint(addr(1)), Arc::clone(&clock), spec.clone());
    let mut buf = [0u8; 2048];
    for (i, p) in payloads.iter().enumerate() {
        clock.set(SimTime::from_nanos(i as u64 * 2_000_000));
        tx.send_to(p, addr(2)).unwrap();
    }
    // Step far past every hold time and blackout so delayed, reordered,
    // and duplicated datagrams all release deterministically.
    clock.set(SimTime::from_nanos(payloads.len() as u64 * 2_000_000 + 10_000_000_000));
    let _ = tx.try_recv(&mut buf).unwrap();
    let mut seen = Vec::new();
    while let Some((n, _)) = sink.try_recv(&mut buf).unwrap() {
        seen.push(buf[..n].to_vec());
    }
    (seen, tx.stats().totals())
}

proptest! {
    /// Two transports built from the same spec produce byte-identical
    /// delivered sequences and identical fault totals: the fault stream
    /// is a pure function of `(seed, policies, clock readings)`.
    #[test]
    fn same_seed_same_spec_is_byte_reproducible(
        seed in any::<u64>(),
        // The six fates form one cumulative partition, so they must sum
        // below 1; 0.15 each caps the sum at 0.9.
        drop in 0.0f64..0.15,
        duplicate in 0.0f64..0.15,
        reorder in 0.0f64..0.15,
        delay in 0.0f64..0.15,
        truncate in 0.0f64..0.15,
        corrupt in 0.0f64..0.15,
        blackout in (any::<bool>(), 1u64..30).prop_map(|(on, ms)| on.then_some(ms)),
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 1..32),
    ) {
        let spec = WireFaultSpec {
            seed,
            tx: WireFaultPolicy {
                drop,
                duplicate,
                reorder,
                delay,
                truncate,
                corrupt,
                ..WireFaultPolicy::default()
            },
            rx: WireFaultPolicy::default(),
            blackouts: blackout
                .map(|ms| {
                    vec![Blackout {
                        direction: FaultDirection::Tx,
                        window: FaultWindow {
                            from: SimTime::from_nanos(4_000_000),
                            to: SimTime::from_nanos(4_000_000 + ms * 1_000_000),
                        },
                    }]
                })
                .unwrap_or_default(),
        };
        let (seen_a, totals_a) = play(&spec, &payloads);
        let (seen_b, totals_b) = play(&spec, &payloads);
        prop_assert_eq!(seen_a, seen_b);
        prop_assert_eq!(totals_a, totals_b);
    }

    /// Valid frames of every kind, alone or coalesced into containers,
    /// pushed through a transport that mutates every datagram (corrupt or
    /// truncate), must never panic the server loop or the receiver —
    /// mutated bytes end up in `decode_errors` (or are accepted as a
    /// different valid frame), and polling afterwards stays healthy.
    #[test]
    fn mutated_frames_never_panic_server_or_receiver(
        seed in any::<u64>(),
        truncate_all in any::<bool>(),
        frames in proptest::collection::vec(
            (0u8..5, any::<u64>(), any::<u16>(), proptest::collection::vec(any::<u8>(), 0..200)),
            1..24),
    ) {
        let (src_addr, server_addr, rx_addr) = (addr(1), addr(2), addr(3));
        let hub = MemHub::new();
        let clock = Arc::new(ManualClock::new());
        // Either every datagram is clipped, or every datagram gets bit
        // flips. Either way nothing arrives unmutated.
        let truncate = if truncate_all { 1.0 } else { 0.0 };
        let spec = WireFaultSpec {
            seed,
            tx: WireFaultPolicy {
                truncate,
                corrupt: 1.0 - truncate,
                ..WireFaultPolicy::default()
            },
            ..WireFaultSpec::default()
        };
        let mutator =
            FaultTransport::new(hub.endpoint(src_addr), Arc::clone(&clock), spec);
        // The receiver registers flow 1 with the server, so mutated ACKs,
        // NACKs, HELLOs and BYEs land on live per-flow state.
        let mut server =
            ServeLoop::new(ServeConfig::new(server_addr), hub.endpoint(server_addr), None);
        let mut receiver = WireReceiver::new(
            WireReceiverConfig {
                flow: FlowId(1),
                server: server_addr,
                packet_bytes: 500,
            },
            hub.endpoint(rx_addr),
        );
        let mut container = Vec::new();
        for (i, (kind, seq, raw, payload)) in frames.iter().enumerate() {
            let tag = FrameTag { frame: *seq % 64, index: 0, total: raw % 512 + 1, base: 1 };
            let bytes = match kind {
                0 => WireData {
                    flow: FlowId(1),
                    seq: *seq,
                    tag,
                    class: (*raw % 3) as u8,
                    retransmission: false,
                    sent_at: SimTime::ZERO,
                    rate_echo: f64::from(*raw),
                    feedback: Some(Feedback::new(AgentId(1), *seq, 0.1, 0.1)),
                    payload,
                }
                .encode(),
                1 => WireAck {
                    flow: FlowId(1),
                    seq: *seq,
                    sent_at: SimTime::ZERO,
                    rate_echo: f64::from(*raw),
                    feedback: Some(Feedback::new(AgentId(1), *seq, 0.1, 0.1)),
                }
                .encode(),
                2 => WireNack { flow: FlowId(1), tag }.encode(),
                3 => WireHello { flow: FlowId(1), seq: *seq }.encode(),
                _ => WireBye { flow: FlowId(1) }.encode(),
            };
            let now = SimTime::from_nanos(i as u64 * 1_000_000);
            clock.set(now);
            // Both endpoints see every mutated frame, whatever its kind,
            // alone and behind everything sent so far in one container.
            container.extend_from_slice(&bytes);
            for datagram in [&bytes, &container] {
                mutator.send_to(datagram, server_addr).unwrap();
                mutator.send_to(datagram, rx_addr).unwrap();
            }
            receiver.poll(now).unwrap();
            server.poll(now).unwrap();
        }
        let end = SimTime::from_nanos(frames.len() as u64 * 1_000_000);
        receiver.poll(end).unwrap();
        server.poll(end).unwrap();
        let mutated = mutator.stats().totals();
        prop_assert!(
            mutated.truncated + mutated.corrupted > 0,
            "the mutator must have touched traffic: {mutated:?}"
        );
        // Whatever survived decoding was counted somewhere; nothing panicked
        // and both endpoints still poll. (Corruption may leave magic/version
        // intact by chance, so decode_errors alone has no guaranteed floor.)
        receiver.poll(end + SimDuration::from_millis(200)).unwrap();
        server.poll(end + SimDuration::from_millis(200)).unwrap();
        let _ = (server.report(end).decode_errors, receiver.decode_errors);
    }
}
