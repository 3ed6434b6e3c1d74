//! Wire-stack hot-path benchmark: data packets through the serve loop over
//! the in-memory transport.
//!
//! Each iteration advances a [`ServeLoop`] hosting 32 flows by one frame
//! interval and drains the client side — the per-packet cost covers HELLO
//! ingest, frame planning, token-bucket pacing, `WireData` encoding, the
//! strict-priority router (queue + budgeted service with label stamping),
//! container coalescing, and `MemHub` delivery. This is the
//! allocation-sensitive path: a per-packet `Vec` clone anywhere in it shows
//! up directly in the elements/s number.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pels_netsim::packet::{FlowId, FrameTag};
use pels_netsim::time::{Rate, SimTime};
use pels_wire::codec::{packets, WireData, WireHello};
use pels_wire::transport::{MemHub, Transport};
use pels_wire::{ServeConfig, ServeLoop};
use std::hint::black_box;
use std::net::SocketAddr;

const FLOWS: u32 = 32;
const PAYLOAD: usize = 400;
/// Without feedback every flow holds MKC's initial 128 kb/s: the 1600-byte
/// base layer of each 10 fps frame and nothing else.
const FRAME_BYTES: usize = 1_600;

fn addr(port: u16) -> SocketAddr {
    format!("127.0.0.1:{port}").parse().unwrap()
}

fn datagram(seq: u64, class: u8, payload: &[u8]) -> Vec<u8> {
    WireData {
        flow: FlowId(1),
        seq,
        tag: FrameTag { frame: seq, index: 0, total: 1, base: 1 },
        class,
        retransmission: false,
        sent_at: SimTime::ZERO,
        rate_echo: 128_000.0,
        feedback: None,
        payload,
    }
    .encode()
}

/// One frame interval of every flow per iteration, in ten 10 ms polls.
/// Capacity is wide enough that nothing queues past a poll.
fn bench_forward(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_forward");
    for &payload in &[64usize, PAYLOAD] {
        let per_frame = FRAME_BYTES.div_ceil(payload) as u64;
        g.throughput(Throughput::Elements(u64::from(FLOWS) * per_frame));
        g.bench_with_input(BenchmarkId::new("frame32", payload), &payload, |b, &payload| {
            let hub = MemHub::new();
            let client = hub.endpoint(addr(2));
            let mut cfg = ServeConfig::new(addr(1));
            cfg.capacity = Rate::from_mbps(1000.0);
            cfg.packet_bytes = payload as u32;
            let mut lp = ServeLoop::new(cfg, hub.endpoint(addr(1)), None);
            let mut now_ns: u64 = 0;
            let mut sink = [0u8; 2048];
            b.iter(|| {
                // The HELLO that registers a flow also keeps it alive.
                for flow in 1..=FLOWS {
                    let hello = WireHello { flow: FlowId(flow), seq: now_ns };
                    client.send_to(&hello.encode(), addr(1)).unwrap();
                }
                for _ in 0..10 {
                    lp.poll(SimTime::from_nanos(now_ns)).unwrap();
                    now_ns += 10_000_000;
                }
                let mut got = 0usize;
                while let Some((n, _)) = client.try_recv(&mut sink).unwrap() {
                    got += packets(&sink[..n]).count();
                }
                black_box(got)
            });
        });
    }
    g.finish();
}

/// Encode alone: the per-packet serialization cost on the source side.
fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire_forward/encode");
    g.throughput(Throughput::Elements(1));
    let body = vec![0u8; PAYLOAD];
    g.bench_function("data_400B", |b| {
        let mut seq = 0u64;
        b.iter(|| {
            seq += 1;
            black_box(datagram(seq, 0, &body))
        });
    });
    g.finish();
}

criterion_group!(benches, bench_forward, bench_encode);
criterion_main!(benches);
