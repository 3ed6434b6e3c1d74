//! Property tests for the wire codecs: roundtrip identity over arbitrary
//! valid packets, hard rejection of truncation and version skew, and the
//! container walk over arbitrary mutated concatenations.

use pels_netsim::packet::{AgentId, Feedback, FlowId, FrameTag};
use pels_netsim::time::SimTime;
use pels_wire::codec::{packets, CodecError, WireAck, WireBye, WireData, WireHello, WireNack};
use pels_wire::codec::{ACK_BYTES, BYE_BYTES, DATA_HEADER_BYTES, HELLO_BYTES, NACK_BYTES, VERSION};
use proptest::prelude::*;

/// Builds a semantically valid frame tag from raw generator output.
fn tag(frame: u64, total_raw: u16, index_raw: u16, base_raw: u16) -> FrameTag {
    let total = total_raw.clamp(1, 512);
    FrameTag { frame, index: index_raw % total, total, base: base_raw % (total + 1) }
}

/// Builds a valid feedback label from raw generator output.
fn label(router: u32, epoch: u64, loss: f64, fgs: f64) -> Feedback {
    Feedback::new(AgentId(router), epoch, loss.clamp(-1e6, 0.999_999), fgs.clamp(0.0, 1.0))
}

proptest! {
    /// Any valid data packet encodes and decodes back to itself, with the
    /// payload decoded zero-copy out of the original buffer.
    #[test]
    fn data_roundtrips(
        flow in any::<u32>(),
        seq in any::<u64>(),
        frame in any::<u64>(),
        total_raw in any::<u16>(),
        index_raw in any::<u16>(),
        base_raw in any::<u16>(),
        class in 0u8..3,
        retx in any::<bool>(),
        sent_ns in any::<u64>(),
        rate in 0.0f64..1e10,
        has_fb in any::<bool>(),
        router in any::<u32>(),
        epoch in any::<u64>(),
        loss in -200.0f64..1.0,
        fgs in 0.0f64..=1.0,
        payload in proptest::collection::vec(any::<u8>(), 0..1200),
    ) {
        let original = WireData {
            flow: FlowId(flow),
            seq,
            tag: tag(frame, total_raw, index_raw, base_raw),
            class,
            retransmission: retx,
            sent_at: SimTime::from_nanos(sent_ns),
            rate_echo: rate,
            feedback: has_fb.then(|| label(router, epoch, loss, fgs)),
            payload: &payload,
        };
        let buf = original.encode();
        let back = WireData::decode(&buf).unwrap();
        prop_assert_eq!(back, original);
        // Zero-copy: the decoded payload aliases the encoded buffer.
        prop_assert_eq!(back.payload.as_ptr(), buf[buf.len() - payload.len()..].as_ptr());
    }

    /// Any valid acknowledgment roundtrips.
    #[test]
    fn ack_roundtrips(
        flow in any::<u32>(),
        seq in any::<u64>(),
        sent_ns in any::<u64>(),
        rate in 0.0f64..1e10,
        has_fb in any::<bool>(),
        router in any::<u32>(),
        epoch in any::<u64>(),
        loss in -200.0f64..1.0,
        fgs in 0.0f64..=1.0,
    ) {
        let original = WireAck {
            flow: FlowId(flow),
            seq,
            sent_at: SimTime::from_nanos(sent_ns),
            rate_echo: rate,
            feedback: has_fb.then(|| label(router, epoch, loss, fgs)),
        };
        let back = WireAck::decode(&original.encode()).unwrap();
        prop_assert_eq!(back, original);
    }

    /// Any valid retransmission request roundtrips.
    #[test]
    fn nack_roundtrips(
        flow in any::<u32>(),
        frame in any::<u64>(),
        total_raw in any::<u16>(),
        index_raw in any::<u16>(),
        base_raw in any::<u16>(),
    ) {
        let original =
            WireNack { flow: FlowId(flow), tag: tag(frame, total_raw, index_raw, base_raw) };
        let back = WireNack::decode(&original.encode()).unwrap();
        prop_assert_eq!(back, original);
    }

    /// Every strict prefix of a valid packet is rejected — no decoder reads
    /// past what it validated, and none accepts a short buffer.
    #[test]
    fn any_truncation_is_rejected(
        kind in 0u8..3,
        cut in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let full = encode_kind(kind, &payload);
        let len = usize::from(cut) % full.len();
        let err = decode_kind(kind, &full[..len]);
        prop_assert!(err.is_err(), "accepted a {len}-byte prefix of {} bytes", full.len());
    }

    /// A packet from any other protocol version is rejected with
    /// `BadVersion`, regardless of kind.
    #[test]
    fn version_skew_is_rejected(
        kind in 0u8..3,
        version in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        prop_assume!(version != VERSION);
        let mut buf = encode_kind(kind, &payload);
        buf[2] = version;
        prop_assert_eq!(decode_kind(kind, &buf).unwrap_err(), CodecError::BadVersion(version));
    }

    /// Corrupting the class byte of a data packet to an unknown color is
    /// a hard reject (routers index queues by class).
    #[test]
    fn bad_class_is_rejected(class in 3u8..=255) {
        let mut buf = encode_kind(0, &[1, 2, 3]);
        buf[30] = class;
        prop_assert_eq!(
            WireData::decode(&buf).unwrap_err(),
            CodecError::InvalidField("class")
        );
    }
}

/// Encodes a representative packet of the given wire kind.
fn encode_kind(kind: u8, payload: &[u8]) -> Vec<u8> {
    let fb = Some(Feedback::new(AgentId(3), 7, 0.25, 0.5));
    match kind {
        0 => WireData {
            flow: FlowId(1),
            seq: 42,
            tag: FrameTag { frame: 9, index: 2, total: 8, base: 4 },
            class: 1,
            retransmission: false,
            sent_at: SimTime::from_nanos(1_000),
            rate_echo: 500_000.0,
            feedback: fb,
            payload,
        }
        .encode(),
        1 => WireAck {
            flow: FlowId(1),
            seq: 42,
            sent_at: SimTime::from_nanos(1_000),
            rate_echo: 500_000.0,
            feedback: fb,
        }
        .encode(),
        _ => WireNack { flow: FlowId(1), tag: FrameTag { frame: 9, index: 2, total: 8, base: 4 } }
            .encode(),
    }
}

/// Decodes with the matching decoder, erasing the differing `Ok` types.
fn decode_kind(kind: u8, buf: &[u8]) -> Result<(), CodecError> {
    match kind {
        0 => WireData::decode(buf).map(|_| ()),
        1 => WireAck::decode(buf).map(|_| ()),
        _ => WireNack::decode(buf).map(|_| ()),
    }
}

/// One valid packet of the kind `kind % 5` names, built from raw generator
/// output.
fn any_packet(kind: u8, n: u64, raw: u16, payload: &[u8]) -> Vec<u8> {
    let flow = FlowId(n as u32);
    let tag = tag(n, raw, raw / 3, raw / 5);
    let feedback = (!raw.is_multiple_of(7)).then(|| label(n as u32, n, 0.1, 0.2));
    match kind % 5 {
        0 => WireData {
            flow,
            seq: n,
            tag,
            class: (raw % 3) as u8,
            retransmission: raw.is_multiple_of(2),
            sent_at: SimTime::from_nanos(n),
            rate_echo: f64::from(raw),
            feedback,
            payload,
        }
        .encode(),
        1 => WireAck {
            flow,
            seq: n,
            sent_at: SimTime::from_nanos(n),
            rate_echo: f64::from(raw),
            feedback,
        }
        .encode(),
        2 => WireNack { flow, tag }.encode(),
        3 => WireHello { flow, seq: n }.encode(),
        _ => WireBye { flow }.encode(),
    }
}

/// The container walk restated from the layout tables in `codec.rs`, with
/// nothing shared with the implementation: lengths of the whole packets at
/// the head of `buf`, and whether bytes were left that frame no packet.
fn reference_walk(buf: &[u8]) -> (Vec<usize>, bool) {
    let mut lens = Vec::new();
    let mut rest = buf;
    while !rest.is_empty() {
        let head_ok = rest.len() >= 4 && rest[..2] == [0x50, 0x4C] && rest[2] == VERSION;
        let len = match (head_ok, rest.get(3)) {
            (true, Some(0)) if rest.len() >= DATA_HEADER_BYTES => {
                DATA_HEADER_BYTES + usize::from(u16::from_be_bytes([rest[76], rest[77]]))
            }
            (true, Some(1)) => ACK_BYTES,
            (true, Some(2)) => NACK_BYTES,
            (true, Some(3)) => HELLO_BYTES,
            (true, Some(4)) => BYE_BYTES,
            _ => return (lens, true),
        };
        if len > rest.len() {
            return (lens, true);
        }
        lens.push(len);
        rest = &rest[len..];
    }
    (lens, false)
}

proptest! {
    /// Arbitrary concatenations of valid packets of all five kinds, cut
    /// short and with bytes flipped, never panic the container walk, never
    /// yield a slice outside the buffer, and yield exactly the valid prefix:
    /// the reference walk's packets, back to back from offset zero, then one
    /// error if anything is left over, then nothing. (The seed corpus for
    /// fuzzing `packet_len`: every receive path walks containers this way.)
    #[test]
    fn container_walk_yields_exactly_the_valid_prefix(
        parts in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u16>(),
             proptest::collection::vec(any::<u8>(), 0..300)),
            0..8),
        cut in any::<u16>(),
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..4),
    ) {
        let mut buf = Vec::new();
        for (kind, n, raw, payload) in &parts {
            buf.extend_from_slice(&any_packet(*kind, *n, *raw, payload));
        }
        // Half the cases keep the whole container, half cut it anywhere.
        if cut % 2 == 1 {
            buf.truncate(usize::from(cut / 2) % (buf.len() + 1));
        }
        for (at, bits) in &flips {
            if !buf.is_empty() {
                let at = usize::from(*at) % buf.len();
                buf[at] ^= bits;
            }
        }
        let (lens, leftover) = reference_walk(&buf);
        let mut walk = packets(&buf);
        let mut offset = 0;
        for len in lens {
            let packet = walk.next().expect("a whole packet").expect("well framed");
            prop_assert_eq!(packet.as_ptr(), buf[offset..].as_ptr());
            prop_assert_eq!(packet.len(), len);
            offset += len;
        }
        prop_assert!(offset <= buf.len());
        prop_assert_eq!(walk.next().is_some_and(|r| r.is_err()), leftover);
        prop_assert!(walk.next().is_none(), "an error ends the walk");
    }
}
