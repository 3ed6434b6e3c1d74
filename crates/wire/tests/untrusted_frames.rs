//! Frame numbers and packet counts arrive in datagrams, so they are
//! hostile: whatever a tag says, the receiver must not panic and one packet
//! may cost only a bounded number of bytes — a log chunk and, for a frame
//! claiming more than 128 packets, its boxed bitset. The chunk's size is
//! the log's own, pinned here at 16 records of 40 bytes and its occupancy
//! word.
//!
//! One `#[test]` only: the byte counter is process-wide.

use pels_fgs::decoder::FrameLog;
use pels_netsim::packet::{FlowId, FrameTag};
use pels_netsim::time::SimTime;
use pels_wire::codec::WireData;
use pels_wire::receiver::{WireReceiver, WireReceiverConfig};
use pels_wire::transport::{MemHub, Transport};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// One chunk of the frame log.
const CHUNK_BYTES: isize = FrameLog::CHUNK_BYTES as isize;
/// Receive flags of packets 128..65 535, and the box that holds them.
const BITSET_BYTES: isize = (65_535 - 128 + 63) / 64 * 8 + 48;
/// A node of the chunk map, a grown queue: small change.
const SLACK_BYTES: isize = 1024;
/// The NACK tracker's request counters for one frame: a byte per packet.
const NACK_COUNTER_BYTES: isize = 65_535;

/// Hostile tags in arrival order: extreme and far-apart frame numbers, the
/// largest packet count, bases and indices at and past the end, and frames
/// older than the first one seen.
fn hostile_tags() -> Vec<FrameTag> {
    let tag = |frame, index, total, base| FrameTag { frame, index, total, base };
    vec![
        tag(1 << 60, 65_534, 65_535, 65_535),
        tag(0, 0, 65_535, 1),
        tag(1, 65_535, 65_535, 0),
        tag(1, 7, 65_535, 0),
        tag((1 << 60) - 1, 200, 65_535, 1),
        tag(u64::MAX - 1, 3, 65_535, 2),
        tag(u64::MAX, 65_534, 65_535, 65_535),
        tag(u64::MAX, 0, 3, 9),
        tag(5, 2, 1, 1),
        tag(1 << 60, 0, 2, 1),
    ]
}

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{port}").parse().unwrap()
}

fn datagram(tag: FrameTag) -> Vec<u8> {
    WireData {
        flow: FlowId(1),
        seq: 0,
        tag,
        class: 0,
        retransmission: false,
        sent_at: SimTime::ZERO,
        rate_echo: 128_000.0,
        feedback: None,
        payload: &[0u8; 100],
    }
    .encode()
}

#[test]
fn hostile_frame_tags_cost_bounded_bytes_and_never_panic() {
    const { assert!(CHUNK_BYTES <= 16 * 40 + 8, "a log chunk outgrew 16 records of 40 bytes") };
    // The log itself, which takes any tag — even ones the codec refuses.
    let mut log = FrameLog::new();
    for (n, tag) in hostile_tags().into_iter().enumerate() {
        let before = live();
        log.entry(tag.frame, tag.total, tag.base, 500)
            .mark_received_sized(tag.index, 100 + n as u32);
        let cost = live() - before;
        assert!(cost <= CHUNK_BYTES + BITSET_BYTES + SLACK_BYTES, "{tag:?} cost {cost} bytes");
    }
    assert_eq!(log.len(), 7);
    assert_eq!(log.decode_all().len(), 7);
    assert_eq!(log.utility().frames, 7);
    assert!(log.iter().map(|(frame, _)| frame).eq([
        0,
        1,
        5,
        (1 << 60) - 1,
        1 << 60,
        u64::MAX - 1,
        u64::MAX
    ]));

    // The receiver, over datagrams: a packet costs what it costs the log,
    // and the NACK tracker's counters for one frame more.
    let bound = CHUNK_BYTES + BITSET_BYTES + NACK_COUNTER_BYTES + SLACK_BYTES;
    let hub = MemHub::new();
    let server = hub.endpoint(addr(1));
    let cfg = WireReceiverConfig { flow: FlowId(1), server: addr(1), packet_bytes: 500 };
    let mut rx = WireReceiver::new(cfg, hub.endpoint(addr(2)));
    let mut buf = [0u8; 2048];
    let mut deliver = |bytes: &[u8], rx: &mut WireReceiver<_>| {
        server.send_to(bytes, addr(2)).unwrap();
        rx.poll(SimTime::ZERO).unwrap();
        // Take the HELLOs, ACKs and NACKs back out, as the server would.
        while server.try_recv(&mut buf).unwrap().is_some() {}
    };
    // A well-formed packet first, so queues and pools are warm.
    deliver(&datagram(FrameTag { frame: 2, index: 0, total: 4, base: 1 }), &mut rx);
    let mut accepted = 0;
    for tag in hostile_tags() {
        let bytes = datagram(tag);
        let well_formed = WireData::decode(&bytes).is_ok();
        accepted += usize::from(well_formed);
        let (before, errors) = (live(), rx.decode_errors);
        deliver(&bytes, &mut rx);
        let cost = live() - before;
        assert!(cost <= bound, "{tag:?} cost {cost} bytes");
        assert_eq!(rx.decode_errors, errors + u64::from(!well_formed), "{tag:?}");
    }
    // The codec refuses an index or a base past the end; the other
    // seven reach the log, on six frames beside the warm-up's.
    assert_eq!(accepted, 7);
    assert_eq!(rx.frames_seen(), 7);
    assert_eq!(rx.decode_all().len(), 7);
    assert_eq!(rx.utility().frames, 7);
}
