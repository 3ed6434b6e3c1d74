//! Probes: the harness calls one public function of a layer in a tight
//! loop, at the shape the workload just measured, and reports ns per call.
//! `count x ns/op` over the run's busy time is then an *estimated* share —
//! no cache pressure from neighbouring layers, no branch history of the
//! real call site — which is why the ledger prints the unattributed
//! residual beside it. In-program spans are a later issue.

use crate::record::RunRecord;
use pels_core::feedback::FeedbackEstimator;
use pels_core::gamma::{GammaConfig, GammaController};
use pels_core::mkc::{MkcConfig, MkcController};
use pels_fgs::frame::FrameSpec;
use pels_fgs::packetize::packetize;
use pels_fgs::scaling::{partition_enhancement, scale_to_rate};
use pels_netsim::disc::{Discipline, DropTail, QEntry, QueueLimit, StrictPriority, Wrr};
use pels_netsim::event::{Event, EventQueue, PacketSlot};
use pels_netsim::packet::{AgentId, Feedback, FlowId, FrameTag, Packet};
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_telemetry::Telemetry;
use pels_wire::codec::{packet_len, WireAck, WireData};
use pels_wire::FlowTable;
use std::hint::black_box;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Calls per timed batch, and how long one probe keeps timing batches.
const BATCH: u32 = 20_000;
const PROBE_BUDGET: Duration = Duration::from_millis(40);

/// Median ns per call of `op` over repeated batches (first batch discarded
/// as warm-up).
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    for _ in 0..BATCH {
        op();
    }
    let started = Instant::now();
    let mut batches = Vec::new();
    while batches.len() < 5 || started.elapsed() < PROBE_BUDGET {
        let t = Instant::now();
        for _ in 0..BATCH {
            op();
        }
        batches.push(t.elapsed().as_nanos() as f64 / f64::from(BATCH));
    }
    crate::stats::median(&batches).unwrap_or(0.0)
}

/// `EventQueue::schedule` + `pop` with `depth` events pending.
pub fn evq_ns_per_op(depth: usize) -> f64 {
    let mut q = EventQueue::new();
    let timer = |token| Event::Timer { agent: AgentId(0), token };
    for i in 0..depth as u64 {
        q.schedule(SimTime::from_nanos(i), timer(i));
    }
    let mut t = depth as u64;
    ns_per_op(|| {
        t += 1;
        q.schedule(SimTime::from_nanos(t), timer(t));
        black_box(q.pop());
    })
}

fn wrr_classify(e: &QEntry) -> usize {
    usize::from(e.class > 2)
}

/// Enqueue + dequeue through the PELS queue shape built from `netsim`'s
/// public disciplines — WRR over {strict priority over three drop-tail
/// colour bands, drop-tail Internet queue} — with every band half full.
pub fn disc_ns_per_pkt(color_limits: [usize; 3], internet_limit: usize, packet_bytes: u32) -> f64 {
    let band =
        |n: usize| -> Box<dyn Discipline> { Box::new(DropTail::new(QueueLimit::Packets(n))) };
    let video = StrictPriority::new(color_limits.iter().map(|&n| band(n)).collect());
    let mut q = Wrr::new(
        vec![(50, Box::new(video) as Box<dyn Discipline>), (50, band(internet_limit))],
        wrr_classify,
        500,
    );
    let mut dropped = Vec::new();
    for (class, &limit) in color_limits.iter().enumerate() {
        for i in 0..limit / 2 {
            q.enqueue(
                QEntry::new(PacketSlot(i as u32), packet_bytes, class as u8),
                SimTime::ZERO,
                &mut dropped,
            );
        }
    }
    let mut i = 0u32;
    ns_per_op(|| {
        i = i.wrapping_add(1);
        q.enqueue(
            QEntry::new(PacketSlot(i), packet_bytes, (i % 3) as u8),
            SimTime::ZERO,
            &mut dropped,
        );
        dropped.clear();
        black_box(q.dequeue(SimTime::ZERO));
    })
}

fn estimator(capacity: Rate) -> FeedbackEstimator {
    FeedbackEstimator::new(capacity, SimDuration::from_millis(30))
}

/// What an AQM router does per arriving video packet before queueing it:
/// Eq. 11 byte accounting plus the Eq. 12 max-override stamp.
pub fn aqm_ns_per_pkt(capacity: Rate, packet_bytes: u32) -> f64 {
    let mut e = estimator(capacity);
    let mut pkt = Packet::data(FlowId(1), AgentId(1), AgentId(2), packet_bytes).with_class(1);
    ns_per_op(|| {
        e.on_arrival(black_box(packet_bytes), black_box(1));
        pkt.stamp_feedback(e.label(AgentId(3)));
        black_box(&pkt);
    })
}

fn mkc_ns_per_update() -> f64 {
    let mut mkc = MkcController::new(MkcConfig::default());
    ns_per_op(|| {
        black_box(mkc.update_from(black_box(1_000_000.0), black_box(0.05)));
    })
}

fn gamma_ns_per_update() -> f64 {
    let mut g = GammaController::new(GammaConfig::default());
    ns_per_op(|| {
        black_box(g.update(black_box(0.1)));
    })
}

fn feedback_ns_per_arrival(capacity: Rate, packet_bytes: u32) -> f64 {
    let mut e = estimator(capacity);
    ns_per_op(|| e.on_arrival(black_box(packet_bytes), black_box(1)))
}

fn feedback_ns_per_tick(capacity: Rate, packet_bytes: u32) -> f64 {
    let mut e = estimator(capacity);
    ns_per_op(|| {
        e.on_arrival(packet_bytes, 1);
        black_box(e.tick(AgentId(1)));
    })
}

/// One frame's planning — `scale_to_rate` + `partition_enhancement` +
/// `packetize` — at `rate_bps`. Returns (ns per frame, packets per frame).
fn plan_ns_per_frame(frame: &FrameSpec, rate_bps: f64, fps: f64, packet_bytes: u32) -> (f64, f64) {
    let plan = |rate: f64| {
        let scaled = scale_to_rate(frame, rate, fps);
        let (yellow, red) = partition_enhancement(scaled.enhancement_bytes, 0.13);
        packetize(&scaled, yellow, red, packet_bytes)
    };
    let pkts = plan(rate_bps).len() as f64;
    let ns = ns_per_op(|| {
        black_box(plan(black_box(rate_bps)));
    });
    (ns, pkts)
}

fn wire_packet(payload: &[u8]) -> WireData<'_> {
    WireData {
        flow: FlowId(7),
        seq: 42,
        tag: FrameTag { frame: 3, index: 1, total: 12, base: 4 },
        class: 1,
        retransmission: false,
        sent_at: SimTime::from_nanos(1_000_000),
        rate_echo: 1_000_000.0,
        feedback: None,
        payload,
    }
}

pub fn encode_ns_per_pkt(packet_bytes: u32) -> f64 {
    let payload = vec![0u8; packet_bytes as usize];
    let pkt = wire_packet(&payload);
    let mut buf = Vec::with_capacity(2048);
    ns_per_op(|| {
        buf.clear();
        black_box(&pkt).encode_into(&mut buf);
        black_box(&buf);
    })
}

fn wire_ack() -> WireAck {
    WireAck {
        flow: FlowId(7),
        seq: 42,
        sent_at: SimTime::from_nanos(1_000_000),
        rate_echo: 1_000_000.0,
        feedback: Some(Feedback::new(AgentId(1), 9, 0.05, 0.1)),
    }
}

/// `WireAck::decode`: what the server pays per acknowledged packet.
pub fn ack_decode_ns_per_pkt() -> f64 {
    let buf = wire_ack().encode();
    ns_per_op(|| {
        black_box(WireAck::decode(black_box(&buf)).is_ok());
    })
}

/// Splitting one full container of coalesced ACKs into its wire packets
/// with `packet_len`, as the server does for every datagram it receives.
pub fn walk_ns_per_container(container_bytes: usize) -> f64 {
    let one = wire_ack().encode();
    let mut container = Vec::new();
    while container.len() + one.len() <= container_bytes.max(one.len()) {
        container.extend_from_slice(&one);
    }
    ns_per_op(|| {
        let mut off = 0;
        while off < container.len() {
            let Ok(len) = packet_len(black_box(&container[off..])) else { break };
            off += len;
        }
        black_box(off);
    })
}

pub fn flowtable_lookup_ns(flows: u32) -> f64 {
    let addr: SocketAddr = ([127, 0, 0, 1], 9).into();
    let mut table: FlowTable<u64> = FlowTable::new();
    for f in 1..=flows {
        table.hello(FlowId(f), addr, SimTime::ZERO, || 0);
    }
    let mut f = 0u32;
    ns_per_op(|| {
        f = f % flows + 1;
        black_box(table.addr_of(FlowId(f)));
    })
}

fn counter_ns(telemetry: &Telemetry) -> f64 {
    ns_per_op(|| telemetry.counter_add("bench.probe", black_box(1)))
}

/// The shape both stacks' controller and planning probes run at.
pub struct ControlShape<'a> {
    pub pels_capacity: Rate,
    pub packet_bytes: u32,
    pub frame: &'a FrameSpec,
    pub fps: f64,
    /// The workload's measured mean video rate.
    pub rate_bps: f64,
}

/// ns per call of the layers both stacks share.
pub struct ControlCosts {
    pub mkc: f64,
    pub gamma: f64,
    pub arrival: f64,
    pub tick: f64,
    pub plan: f64,
}

/// Probes `core`'s controllers and estimator, `fgs` frame planning and the
/// telemetry counter, and records each as its layer metric.
pub fn control_costs(rec: &mut RunRecord, shape: &ControlShape<'_>) -> ControlCosts {
    let (plan, pkts_per_frame) =
        plan_ns_per_frame(shape.frame, shape.rate_bps, shape.fps, shape.packet_bytes);
    let costs = ControlCosts {
        mkc: mkc_ns_per_update(),
        gamma: gamma_ns_per_update(),
        arrival: feedback_ns_per_arrival(shape.pels_capacity, shape.packet_bytes),
        tick: feedback_ns_per_tick(shape.pels_capacity, shape.packet_bytes),
        plan,
    };
    for (name, value) in [
        ("core.mkc_ns_per_update", costs.mkc),
        ("core.gamma_ns_per_update", costs.gamma),
        ("core.feedback_ns_per_arrival", costs.arrival),
        ("core.feedback_ns_per_tick", costs.tick),
        ("fgs.plan_ns_per_frame", costs.plan),
        ("fgs.pkts_per_frame", pkts_per_frame),
        ("telemetry.counter_ns_enabled", counter_ns(&Telemetry::new())),
        ("telemetry.counter_ns_disabled", counter_ns(&Telemetry::disabled())),
    ] {
        rec.set_layer(name, value);
    }
    costs
}
