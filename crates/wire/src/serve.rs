//! `pels serve`: one process, thousands of PELS flows, batched UDP.
//!
//! The single-flow live stack (`pels live`) wires one source, one router,
//! and one receiver as three sockets on loopback. This module is the
//! multi-flow production posture from ROADMAP item 3 — one readiness-polled
//! socket loop hosting every flow in-process (DESIGN.md §15):
//!
//! * **Flow table** — a [`FlowTable`] keyed by flow id whose per-flow state
//!   is a full MKC + γ control machine ([`ServeFlow`]): the same Eq. 8 /
//!   Eq. 4 controllers as [`crate::source::WireSource`], driven by client
//!   HELLO (register), ACK (feedback), and BYE (teardown) datagrams.
//! * **Timer wheel** — frame emission and token-bucket pacing for every
//!   flow hang off one hashed wheel with 1 ms slots; firing lateness
//!   (actual minus scheduled) is the *pacing jitter* reported by
//!   `pels bench --wire`.
//! * **Shared PELS router** — every paced packet passes through one
//!   in-process strict-priority green/yellow/red discipline with a single
//!   Eq. 11 [`FeedbackEstimator`] across all flows, so per-flow MKC rates
//!   converge to the `C/N + α/β` contended operating point exactly as they
//!   would behind a physical bottleneck. Labels are stamped at departure.
//! * **Batched I/O** — departures leave and arrivals enter through
//!   [`Transport::send_batch`]/[`Transport::recv_batch`]; with the
//!   [`BatchedUdp`] backend that is one `sendmmsg`/`recvmmsg` per batch
//!   instead of one syscall per datagram (`--no-batch` falls back to the
//!   per-datagram loop for the baseline row).
//!
//! The serve posture is strict-flows and ARQ-free: data for an evicted
//! flow is dropped (never forwarded to a stale address) and NACKs are
//! counted but not answered — repair amplification is a per-session
//! feature, not a fan-out server's.

use crate::batch::BatchedUdp;
use crate::codec::{packet_len, peek_kind, WireAck, WireBye, WireData, WireHello, WireKind};
use crate::codec::{patch_feedback, DATA_HEADER_BYTES};
use crate::flowtable::FlowTable;
use crate::telemetry_names::{
    serve_flow_rate_metric, SERVE_ACKS, SERVE_DECODE_ERRORS, SERVE_FLOWS, SERVE_PACING_JITTER,
    SERVE_TX,
};
use crate::transport::{Datagram, Transport, UdpTransport};
use pels_core::feedback::{EpochFilter, FeedbackEstimator};
use pels_core::gamma::{GammaConfig, GammaController};
use pels_core::mkc::{MkcConfig, MkcController};
use pels_core::source::plan_frame;
use pels_core::Color;
use pels_fgs::frame::VideoTrace;
use pels_fgs::packetize::Segment;
use pels_netsim::clock::{Clock, MonotonicClock};
use pels_netsim::hist::Histogram;
use pels_netsim::packet::{AgentId, FlowId, FrameTag};
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_telemetry::Telemetry;
use serde::Serialize;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of `pels serve`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Socket to bind (port 0 picks an ephemeral port, reported via
    /// `on_ready`).
    pub listen: SocketAddr,
    /// Identifier stamped into feedback labels.
    pub id: AgentId,
    /// Shared PELS capacity across all flows — the `C` every per-flow MKC
    /// rate contends for.
    pub capacity: Rate,
    /// Wall-clock run length; [`SimDuration::ZERO`] runs until the
    /// `should_stop` callback fires.
    pub duration: SimDuration,
    /// Wire packet payload size.
    pub packet_bytes: u32,
    /// The video every flow streams (looped).
    pub trace: VideoTrace,
    /// MKC gains, applied per flow.
    pub mkc: MkcConfig,
    /// γ-controller gains, applied per flow.
    pub gamma: GammaConfig,
    /// Eq. 11 measurement interval of the shared router.
    pub feedback_interval: SimDuration,
    /// Shared router queue limits in packets per color.
    pub color_limits: [usize; 3],
    /// Flow-table idle eviction timeout (HELLO refresh keeps a flow live).
    pub flow_idle_timeout: SimDuration,
    /// Hard cap on concurrent flows; HELLOs beyond it are refused.
    pub max_flows: usize,
    /// Use the `recvmmsg`/`sendmmsg` batched UDP backend (`false` = the
    /// per-datagram baseline).
    pub batch: bool,
    /// Datagrams per batched I/O call.
    pub batch_size: usize,
    /// Coalescing cap for the batched path: consecutive departures to the
    /// same destination are packed back-to-back into container datagrams
    /// of at most this many bytes before hitting the socket. Wire packets
    /// are self-delimiting (see [`packet_len`](crate::codec::packet_len)),
    /// so receivers split containers without framing bytes. `0` disables
    /// coalescing; the per-datagram baseline (`batch: false`) never
    /// coalesces regardless. Must not exceed [`RX_SLOT_BYTES`] or peers
    /// will truncate containers on receive.
    pub aggregate_bytes: usize,
    /// Emit per-flow telemetry series (`wire.serve.flow.<id>.rate`). Off
    /// by default: at thousands of flows every per-flow series multiplies
    /// the sink's cardinality, so the default records aggregates only.
    pub telemetry_per_flow: bool,
    /// Telemetry handle for the aggregate `wire.serve.*` metrics.
    pub telemetry: Telemetry,
}

impl ServeConfig {
    /// Serve defaults: 100 Mb/s shared capacity, 400-byte packets, a
    /// 10 fps constant trace, paper control gains, batching on.
    pub fn new(listen: SocketAddr) -> Self {
        ServeConfig {
            listen,
            id: AgentId(1),
            capacity: Rate::from_mbps(100.0),
            duration: SimDuration::from_secs(5),
            packet_bytes: 400,
            trace: VideoTrace::constant(300, 10.0, 1_600, 10_000),
            mkc: MkcConfig::default(),
            gamma: GammaConfig::default(),
            feedback_interval: SimDuration::from_millis(30),
            color_limits: [8192, 8192, 2048],
            flow_idle_timeout: SimDuration::from_millis(500),
            max_flows: 4096,
            batch: true,
            batch_size: 64,
            aggregate_bytes: AGGREGATE_BYTES,
            telemetry_per_flow: false,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// End-of-run summary of one serve session (the `pels serve` JSON output).
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Wall-clock seconds the loop ran.
    pub duration_secs: f64,
    /// Whether the batched (`sendmmsg`/`recvmmsg`) backend was used.
    pub batched: bool,
    /// High-water mark of concurrent flows.
    pub peak_flows: usize,
    /// Flow-table entries still present at exit — after every BYE and the
    /// idle-eviction backstop, this must be zero (the CI leak gate).
    pub leaked_flows: usize,
    /// HELLO frames accepted (registrations + refreshes).
    pub hellos: u64,
    /// HELLOs refused at the `max_flows` cap.
    pub hellos_refused: u64,
    /// BYE frames that removed a flow.
    pub byes: u64,
    /// Flows evicted on idle timeout.
    pub evictions: u64,
    /// Feedback ACKs consumed by per-flow controllers.
    pub acks: u64,
    /// NACKs received and deliberately ignored (serve runs no ARQ).
    pub nacks_ignored: u64,
    /// Undecodable datagrams at the serve socket.
    pub decode_errors: u64,
    /// Video frames emitted across all flows.
    pub frames_emitted: u64,
    /// Packets abandoned because their frame interval expired unsent.
    pub abandoned_packets: u64,
    /// Data datagrams handed to the socket, all flows.
    pub data_sent: u64,
    /// `data_sent / duration_secs`.
    pub datagrams_per_sec: f64,
    /// Departures per color class (green, yellow, red).
    pub tx_by_class: [u64; 3],
    /// Drops at full shared-router color queues.
    pub queue_drops_by_class: [u64; 3],
    /// Strict-mode drops of packets whose flow died between pacing and
    /// departure.
    pub unregistered_drops: u64,
    /// UDP sends swallowed (`WouldBlock`/refusal/short-write).
    pub send_drops: u64,
    /// Timer-wheel events fired.
    pub timer_events: u64,
    /// Median timer-event lateness, microseconds.
    pub pacing_jitter_p50_us: f64,
    /// 99th-percentile timer-event lateness, microseconds — the bench
    /// jitter column.
    pub pacing_jitter_p99_us: f64,
}

/// One planned-but-unsent packet of a flow's current frame.
#[derive(Debug, Clone, Copy)]
struct Pending {
    bytes: u32,
    class: u8,
    tag: FrameTag,
}

/// Per-flow serve state: the full MKC + γ control machine plus the flow's
/// pacing bucket and frame plan. Lives inside the [`FlowTable`] entry.
#[derive(Debug)]
pub struct ServeFlow {
    mkc: MkcController,
    gamma: GammaController,
    filter: EpochFilter,
    frame_idx: u64,
    seq: u64,
    pending: VecDeque<Pending>,
    tokens_bits: f64,
    last_pace: Option<SimTime>,
    /// Whether a Pace event for this flow is already on the wheel (one
    /// pacing chain per flow, re-armed by frame emission).
    pace_armed: bool,
}

impl ServeFlow {
    fn new(mkc: MkcConfig, gamma: GammaConfig) -> Self {
        ServeFlow {
            mkc: MkcController::new(mkc),
            gamma: GammaController::new(gamma),
            filter: EpochFilter::new(),
            frame_idx: 0,
            seq: 0,
            pending: VecDeque::new(),
            tokens_bits: 0.0,
            last_pace: None,
            pace_armed: false,
        }
    }

    /// Plans the next frame at the current MKC rate ([`plan_frame`]).
    /// Returns packets abandoned from the previous interval.
    fn emit_frame(&mut self, trace: &VideoTrace, packet_bytes: u32) -> u64 {
        let abandoned = self.pending.len() as u64;
        self.pending.clear();
        let spec = *trace.frame(self.frame_idx);
        let (plan, _shed) =
            plan_frame(&spec, trace.fps, self.mkc.rate_bps(), self.gamma.gamma(), packet_bytes);
        let total = plan.len() as u16;
        let base = plan.iter().filter(|p| p.segment == Segment::Base).count() as u16;
        for pp in &plan {
            self.pending.push_back(Pending {
                bytes: pp.bytes,
                class: Color::from(pp.segment).class(),
                tag: FrameTag { frame: self.frame_idx, index: pp.index, total, base },
            });
        }
        self.frame_idx += 1;
        abandoned
    }
}

/// Timer-wheel event kinds.
#[derive(Debug, Clone, Copy)]
enum TimerEvent {
    /// Emit the next video frame of a flow.
    Frame(FlowId),
    /// Drain a flow's token bucket into the shared router.
    Pace(FlowId),
    /// Close the shared router's Eq. 11 interval and run idle eviction.
    Tick,
}

/// Longest a ready departure batch may wait for more packets before it is
/// flushed anyway. Without a fill target the event loop flushes whatever
/// trickled in since the last poll — measured batches of 2–3 datagrams,
/// which re-inflates the per-datagram syscall cost batching exists to
/// amortize. One wheel tick of extra queueing is already inside the pacing
/// tolerance.
const FLUSH_INTERVAL: SimDuration = SimDuration::from_millis(1);

/// Default coalescing cap — the classic maximum UDP payload on Ethernet
/// (1500-byte MTU − 20 IP − 8 UDP), which fits three 478-byte data packets
/// per container at the default 400-byte payload. Loopback would tolerate
/// far larger datagrams, but the point of the bench is a number that
/// transfers to real NICs, where anything past the MTU fragments.
///
/// Coalescing is the lever that actually moves datagrams/s on this path:
/// on a kernel without mitigation overhead, syscall *entry* is nearly free
/// and the ~1 µs per datagram is loopback stack traversal, paid per
/// datagram whether it was submitted via `sendmmsg` or `sendto`. Packing
/// ~3 wire packets per container divides that per-datagram cost by ~3;
/// `sendmmsg` alone only shaves the (cheap) entry.
pub(crate) const AGGREGATE_BYTES: usize = 1472;

/// Receive-slot capacity on both serve and loadgen rings. Must hold the
/// largest container a peer can send ([`AGGREGATE_BYTES`], plus headroom
/// for configs that raise it); anything longer is truncated by the socket
/// and surfaces as a decode error.
pub(crate) const RX_SLOT_BYTES: usize = 2048;

/// Pacing admission stops while a color queue holds this many packets.
/// Past it, admitting more only converts cheap pending entries into
/// encoded multi-megabyte queue contents that thrash the cache and, at
/// the color cap, get dropped after paying for their encode. The backlog
/// stays unencoded in each flow's pending list (where the frame watchdog
/// can still abandon it) and admission retries next wheel tick. Sized at
/// several polls' worth of drain so backpressure never starves the link.
const ADMIT_HIGH_WATER: usize = 2048;

/// Slots in the hashed wheel; at 1 ms granularity this is a ~2 s horizon,
/// far beyond the longest schedule (one frame interval). Deadlines past
/// the horizon still fire correctly — they stay in their slot until their
/// round comes up.
const WHEEL_SLOTS: u64 = 2048;

/// A hashed timer wheel with 1 ms slots shared by every flow.
#[derive(Debug)]
struct TimerWheel {
    slots: Vec<Vec<(SimTime, TimerEvent)>>,
    granularity_ns: u64,
    /// Tick of the last `advance` — events are never fired before their
    /// deadline's tick has been reached.
    cursor: u64,
}

impl TimerWheel {
    fn new() -> Self {
        TimerWheel {
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            granularity_ns: 1_000_000,
            cursor: 0,
        }
    }

    fn tick_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.granularity_ns
    }

    /// Schedules `ev` for `deadline` (past deadlines land in the current
    /// slot and fire on the next advance).
    ///
    /// The slot is chosen by the deadline rounded *up* to a tick edge, so
    /// by the time the cursor reaches it the deadline has always passed:
    /// every event fires on the first scan of its slot. Rounding down
    /// would strand not-yet-due events in the cursor's slot, where the
    /// advance loop rescans them on every poll — at thousands of flows
    /// that is hundreds of stale entries touched tens of thousands of
    /// times a second.
    fn schedule(&mut self, deadline: SimTime, ev: TimerEvent) {
        let tick = deadline.as_nanos().div_ceil(self.granularity_ns).max(self.cursor);
        self.slots[(tick % WHEEL_SLOTS) as usize].push((deadline, ev));
    }

    /// Collects every event due by `now` into `fired`, tagged with its
    /// scheduled deadline (lateness = `now − deadline` is the pacing
    /// jitter).
    ///
    /// Due means `deadline <= now` — the actual deadline, not its tick.
    /// Firing anything in the current tick would release events up to a
    /// tick *early*; a pacing chain whose token deficit matures mid-tick
    /// then fires before the tokens exist, re-arms another sub-tick
    /// deadline, and spins at poll frequency (measured: ~9 timer events
    /// per packet sent before this guard; ~1 after). Not-yet-due events
    /// stay in the cursor's slot, which every advance rescans.
    fn advance(&mut self, now: SimTime, fired: &mut Vec<(SimTime, TimerEvent)>) {
        let target = self.tick_of(now);
        if target < self.cursor {
            return;
        }
        // A stall longer than the horizon makes every slot due; one pass
        // over the whole wheel then covers all of them.
        let span = (target - self.cursor + 1).min(WHEEL_SLOTS);
        for i in 0..span {
            let tick = self.cursor + i;
            let slot = &mut self.slots[(tick % WHEEL_SLOTS) as usize];
            let mut j = 0;
            while j < slot.len() {
                if slot[j].0 <= now {
                    fired.push(slot.swap_remove(j));
                } else {
                    j += 1;
                }
            }
        }
        self.cursor = target;
    }
}

/// The shared in-process PELS router: one Eq. 11 estimator and one
/// green/yellow/red strict-priority discipline across all flows.
#[derive(Debug)]
struct ServeRouter {
    estimator: FeedbackEstimator,
    queues: [VecDeque<(FlowId, Vec<u8>)>; 3],
    /// Recycled datagram buffers shared with the departure batch.
    free: Vec<Vec<u8>>,
    budget_bits: f64,
    last_drain: Option<SimTime>,
    capacity_bps: f64,
    interval: SimDuration,
    color_limits: [usize; 3],
    tx_by_class: [u64; 3],
    drops_by_class: [u64; 3],
    unregistered_drops: u64,
}

impl ServeRouter {
    fn new(
        capacity: Rate,
        interval: SimDuration,
        smoothing: f64,
        color_limits: [usize; 3],
    ) -> Self {
        ServeRouter {
            estimator: FeedbackEstimator::with_smoothing(capacity, interval, smoothing),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            free: Vec::new(),
            budget_bits: 0.0,
            last_drain: None,
            capacity_bps: capacity.as_bps() as f64,
            interval,
            color_limits,
            tx_by_class: [0; 3],
            drops_by_class: [0; 3],
            unregistered_drops: 0,
        }
    }

    /// A recycled (or fresh) buffer to encode the next datagram into.
    fn take_buf(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    /// Packets queued in `class`, for admission backpressure.
    fn queue_depth(&self, class: u8) -> usize {
        self.queues[class.min(2) as usize].len()
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.free.len() < self.color_limits.iter().sum() {
            self.free.push(buf);
        }
    }

    /// Admits one paced packet into its color queue, measuring the arrival
    /// (payload bits) for the Eq. 11 estimate.
    fn enqueue(&mut self, flow: FlowId, datagram: Vec<u8>, class: u8, payload_bytes: u32) {
        self.estimator.on_arrival(payload_bytes, class);
        let c = class.min(2) as usize;
        if self.queues[c].len() >= self.color_limits[c] {
            self.drops_by_class[c] += 1;
            self.recycle(datagram);
        } else {
            self.queues[c].push_back((flow, datagram));
        }
    }

    /// Serves the color queues in strict priority within the accumulated
    /// byte budget, stamping the current label at departure and resolving
    /// each packet's destination through the flow table (strict: a dead
    /// flow's packet is dropped, costing no budget). Departures are pushed
    /// into `out` for one batched send.
    fn drain(
        &mut self,
        now: SimTime,
        id: AgentId,
        flows: &FlowTable<ServeFlow>,
        out: &mut Vec<Datagram>,
    ) {
        if let Some(last) = self.last_drain {
            let dt = now.duration_since(last).as_secs_f64();
            // Credit is capped at one interval's worth so an idle spell
            // cannot bank an arbitrary burst — but the bucket must hold at
            // least one full datagram, or a capacity below ~1 MTU per
            // interval deadlocks the queue (bucket depth ≥ MTU rule).
            const MAX_DATAGRAM_BITS: f64 = 2048.0 * 8.0;
            let max_credit =
                (self.capacity_bps * self.interval.as_secs_f64()).max(MAX_DATAGRAM_BITS);
            self.budget_bits = (self.budget_bits + self.capacity_bps * dt).min(max_credit);
        }
        self.last_drain = Some(now);
        let label = self.estimator.label(id);
        loop {
            let Some(class) = (0..3).find(|&c| !self.queues[c].is_empty()) else {
                return;
            };
            let cost = self.queues[class]
                .front()
                .map_or(0.0, |(_, d)| d.len().saturating_sub(DATA_HEADER_BYTES) as f64 * 8.0);
            if self.budget_bits < cost {
                return;
            }
            let Some((flow, mut datagram)) = self.queues[class].pop_front() else {
                return;
            };
            let Some(addr) = flows.addr_of(flow) else {
                self.unregistered_drops += 1;
                self.recycle(datagram);
                continue;
            };
            self.budget_bits -= cost;
            let _ = patch_feedback(&mut datagram, label);
            self.tx_by_class[class] += 1;
            out.push(Datagram { buf: datagram, addr });
        }
    }
}

/// The serve event loop as a `poll(now)` state machine over any
/// [`Transport`] — `run_serve` drives it against wall time on UDP, tests
/// drive it deterministically on [`MemHub`](crate::transport::MemHub) with
/// a [`ManualClock`](pels_netsim::clock::ManualClock).
#[derive(Debug)]
pub struct ServeLoop<T: Transport> {
    transport: T,
    cfg: ServeConfig,
    flows: FlowTable<ServeFlow>,
    wheel: TimerWheel,
    router: ServeRouter,
    jitter: Histogram,
    rx_ring: Vec<Datagram>,
    tx_batch: Vec<Datagram>,
    /// Scratch for coalesced container datagrams, reused across flushes.
    agg_batch: Vec<Datagram>,
    /// Deadline for flushing a part-full `tx_batch` (armed when the batch
    /// goes non-empty; see [`FLUSH_INTERVAL`]).
    flush_due: SimTime,
    fired: Vec<(SimTime, TimerEvent)>,
    /// When the last Eq. 11 tick closed, for measured-window feedback.
    last_tick: Option<SimTime>,
    payload_pool: Vec<u8>,
    frame_interval: SimDuration,
    send_drops: Option<Arc<AtomicU64>>,
    started: bool,
    peak_flows: usize,
    hellos: u64,
    hellos_refused: u64,
    byes: u64,
    evictions: u64,
    acks: u64,
    nacks_ignored: u64,
    decode_errors: u64,
    frames_emitted: u64,
    abandoned_packets: u64,
    data_sent: u64,
    timer_events: u64,
}

impl<T: Transport> ServeLoop<T> {
    /// Wraps `transport` in a serve loop. `send_drops` is the transport's
    /// swallowed-send counter when it has one (UDP backends).
    pub fn new(cfg: ServeConfig, transport: T, send_drops: Option<Arc<AtomicU64>>) -> Self {
        let router = ServeRouter::new(cfg.capacity, cfg.feedback_interval, 0.15, cfg.color_limits);
        let rx_ring = (0..cfg.batch_size.max(1)).map(|_| Datagram::slot(RX_SLOT_BYTES)).collect();
        let payload_pool = vec![0u8; cfg.packet_bytes as usize];
        let frame_interval = SimDuration::from_secs_f64(cfg.trace.frame_interval_secs());
        ServeLoop {
            transport,
            cfg,
            flows: FlowTable::new(),
            wheel: TimerWheel::new(),
            router,
            jitter: Histogram::for_delays(),
            rx_ring,
            tx_batch: Vec::new(),
            agg_batch: Vec::new(),
            flush_due: SimTime::ZERO,
            fired: Vec::new(),
            last_tick: None,
            payload_pool,
            frame_interval,
            send_drops,
            started: false,
            peak_flows: 0,
            hellos: 0,
            hellos_refused: 0,
            byes: 0,
            evictions: 0,
            acks: 0,
            nacks_ignored: 0,
            decode_errors: 0,
            frames_emitted: 0,
            abandoned_packets: 0,
            data_sent: 0,
            timer_events: 0,
        }
    }

    /// The bound socket address clients should HELLO at.
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr()
    }

    /// Live flows currently registered.
    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// Advances the loop to `now`: drains the socket, fires due timers,
    /// and pushes one departure batch. Returns whether any work was done
    /// (idle callers can afford a short sleep).
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures; datagram loss is not an error.
    pub fn poll(&mut self, now: SimTime) -> io::Result<bool> {
        if !self.started {
            self.started = true;
            self.wheel.schedule(now + self.cfg.feedback_interval, TimerEvent::Tick);
        }
        let mut work = false;
        // Ingest: control datagrams (HELLO/ACK/BYE/NACK) from clients.
        loop {
            for slot in self.rx_ring.iter_mut() {
                slot.reset(RX_SLOT_BYTES);
            }
            let mut ring = std::mem::take(&mut self.rx_ring);
            let n = self.transport.recv_batch(&mut ring);
            let got = match n {
                Ok(got) => got,
                Err(e) => {
                    self.rx_ring = ring;
                    return Err(e);
                }
            };
            for slot in ring.iter_mut().take(got) {
                let (buf, from) = (std::mem::take(&mut slot.buf), slot.addr);
                self.on_container(now, &buf, from);
                slot.buf = buf;
            }
            let full = got == ring.len();
            self.rx_ring = ring;
            if got > 0 {
                work = true;
            }
            if !full {
                break;
            }
        }
        // Timers: frame emission, pacing, router ticks.
        let mut fired = std::mem::take(&mut self.fired);
        self.wheel.advance(now, &mut fired);
        for &(deadline, ev) in fired.iter() {
            self.timer_events += 1;
            let late = now.duration_since(deadline).as_secs_f64();
            self.jitter.record(late);
            match ev {
                TimerEvent::Frame(f) => self.on_frame(now, f),
                TimerEvent::Pace(f) => self.on_pace(now, f),
                TimerEvent::Tick => self.on_tick(now),
            }
        }
        work |= !fired.is_empty();
        fired.clear();
        self.fired = fired;
        // Departures: strict-priority drain, accumulated until the batch
        // fills (or its flush deadline passes) so each send_batch call
        // actually carries a batch worth amortizing a syscall over.
        let mut batch = std::mem::take(&mut self.tx_batch);
        let was_empty = batch.is_empty();
        self.router.drain(now, self.cfg.id, &self.flows, &mut batch);
        if was_empty && !batch.is_empty() {
            self.flush_due = now + FLUSH_INTERVAL;
        }
        let full = batch.len() >= self.cfg.batch_size.max(1);
        if !batch.is_empty() && (full || now >= self.flush_due) {
            work = true;
            self.data_sent += batch.len() as u64;
            self.cfg.telemetry.counter_add(SERVE_TX, batch.len() as u64);
            let agg = if self.cfg.batch { self.cfg.aggregate_bytes } else { 0 };
            let res = if agg > 0 {
                // Coalesce consecutive same-destination packets into
                // container datagrams: the kernel charges per datagram,
                // not per wire packet, so fewer-but-fuller datagrams is
                // where the batched path's throughput comes from. The
                // first packet of each run donates its buffer, so a
                // run of one costs no copy at all.
                let mut packed = std::mem::take(&mut self.agg_batch);
                for d in batch.drain(..) {
                    match packed.last_mut() {
                        Some(last)
                            if last.addr == d.addr && last.buf.len() + d.buf.len() <= agg =>
                        {
                            last.buf.extend_from_slice(&d.buf);
                            self.router.recycle(d.buf);
                        }
                        _ => packed.push(d),
                    }
                }
                let res = self.transport.send_batch(&packed);
                for d in packed.drain(..) {
                    self.router.recycle(d.buf);
                }
                self.agg_batch = packed;
                res
            } else {
                let res = self.transport.send_batch(&batch);
                for d in batch.drain(..) {
                    self.router.recycle(d.buf);
                }
                res
            };
            self.tx_batch = batch;
            res?;
        } else {
            self.tx_batch = batch;
        }
        Ok(work)
    }

    /// Splits a (possibly coalesced) datagram into its wire packets. A
    /// single-packet datagram is the degenerate one-iteration case, so
    /// baseline peers cost nothing extra. A malformed head poisons the
    /// rest of the container — without its length the remainder has no
    /// frame boundary — and counts one decode error.
    fn on_container(&mut self, now: SimTime, buf: &[u8], from: SocketAddr) {
        let mut off = 0;
        while off < buf.len() {
            let Ok(len) = packet_len(&buf[off..]) else {
                return self.on_decode_error();
            };
            let end = off + len;
            if end > buf.len() {
                return self.on_decode_error();
            }
            self.on_datagram(now, &buf[off..end], from);
            off = end;
        }
    }

    fn on_datagram(&mut self, now: SimTime, buf: &[u8], from: SocketAddr) {
        match peek_kind(buf) {
            Ok(WireKind::Hello) => {
                let Ok(hello) = WireHello::decode(buf) else {
                    return self.on_decode_error();
                };
                if self.flows.len() >= self.cfg.max_flows && !self.flows.contains(hello.flow) {
                    self.hellos_refused += 1;
                    return;
                }
                let (mkc, gamma) = (self.cfg.mkc, self.cfg.gamma);
                let new = self.flows.hello(hello.flow, from, now, || ServeFlow::new(mkc, gamma));
                self.hellos += 1;
                if new {
                    self.peak_flows = self.peak_flows.max(self.flows.len());
                    self.wheel.schedule(now, TimerEvent::Frame(hello.flow));
                }
            }
            Ok(WireKind::Ack) => {
                let Ok(ack) = WireAck::decode(buf) else {
                    return self.on_decode_error();
                };
                self.on_ack(now, &ack);
            }
            Ok(WireKind::Bye) => {
                let Ok(bye) = WireBye::decode(buf) else {
                    return self.on_decode_error();
                };
                if self.flows.bye(bye.flow).is_some() {
                    self.byes += 1;
                }
            }
            Ok(WireKind::Nack) => {
                // Serve runs no ARQ: a fan-out server answering repair
                // floods from thousands of receivers is an amplifier.
                self.nacks_ignored += 1;
            }
            _ => self.on_decode_error(),
        }
    }

    fn on_decode_error(&mut self) {
        self.decode_errors += 1;
        self.cfg.telemetry.counter_add(SERVE_DECODE_ERRORS, 1);
    }

    fn on_ack(&mut self, now: SimTime, ack: &WireAck) {
        let Some(entry) = self.flows.get_mut(ack.flow) else {
            return;
        };
        self.acks += 1;
        self.cfg.telemetry.counter_add(SERVE_ACKS, 1);
        let Some(fb) = ack.feedback else { return };
        let s = &mut entry.state;
        if !s.filter.accept(&fb) {
            return;
        }
        s.mkc.update_from(ack.rate_echo, fb.loss);
        s.mkc.record_fresh(now);
        s.gamma.update(fb.fgs_loss);
        if self.cfg.telemetry_per_flow && self.cfg.telemetry.is_enabled() {
            self.cfg.telemetry.sample(
                &serve_flow_rate_metric(ack.flow.0),
                now.as_secs_f64(),
                s.mkc.rate_bps(),
            );
        }
    }

    /// Frame deadline: run the per-flow staleness watchdog, plan the next
    /// frame, re-arm the frame timer, and arm pacing if idle.
    fn on_frame(&mut self, now: SimTime, flow: FlowId) {
        let Some(entry) = self.flows.get_mut(flow) else {
            return; // evicted after scheduling: the timer dies here
        };
        let s = &mut entry.state;
        // One check per frame interval stands in for the source's
        // stale_timeout/4 watchdog cadence (same order of magnitude).
        if s.mkc.apply_staleness(now) {
            s.filter.reset();
        }
        let abandoned = s.emit_frame(&self.cfg.trace, self.cfg.packet_bytes);
        let arm_pace = !s.pending.is_empty() && !s.pace_armed;
        if arm_pace {
            s.pace_armed = true;
        }
        self.abandoned_packets += abandoned;
        self.frames_emitted += 1;
        self.wheel.schedule(now + self.frame_interval, TimerEvent::Frame(flow));
        if arm_pace {
            self.wheel.schedule(now, TimerEvent::Pace(flow));
        }
    }

    /// Pace deadline: refill the flow's token bucket and admit affordable
    /// packets into the shared router, then re-arm for the moment the next
    /// packet's tokens mature.
    fn on_pace(&mut self, now: SimTime, flow: FlowId) {
        let Some(entry) = self.flows.get_mut(flow) else {
            return;
        };
        let s = &mut entry.state;
        let packet_bits = f64::from(self.cfg.packet_bytes) * 8.0;
        let rate = s.mkc.rate_bps();
        match s.last_pace {
            Some(last) => {
                let dt = now.duration_since(last).as_secs_f64();
                // Bucket depth: one frame interval's worth of tokens (the
                // most `pending` can ever hold), floored at two packets. A
                // two-packet cap clips tokens whenever a pace event fires
                // late — under load the lost credit compounds until frames
                // are abandoned wholesale even though the MKC rate and the
                // socket could both carry them.
                let depth = (rate * self.frame_interval.as_secs_f64()).max(2.0 * packet_bits);
                s.tokens_bits = (s.tokens_bits + rate * dt).min(depth);
            }
            None => s.tokens_bits = packet_bits,
        }
        s.last_pace = Some(now);
        while let Some(front) = s.pending.front() {
            let cost = f64::from(front.bytes) * 8.0;
            if s.tokens_bits < cost {
                break;
            }
            if self.router.queue_depth(front.class) >= ADMIT_HIGH_WATER {
                break;
            }
            let Some(p) = s.pending.pop_front() else { break };
            s.tokens_bits -= cost;
            let mut datagram = self.router.take_buf();
            WireData {
                flow,
                seq: s.seq,
                tag: p.tag,
                class: p.class,
                retransmission: false,
                sent_at: now,
                rate_echo: rate,
                feedback: None,
                payload: &self.payload_pool[..p.bytes as usize],
            }
            .encode_into(&mut datagram);
            s.seq += 1;
            self.router.enqueue(flow, datagram, p.class, p.bytes);
        }
        if let Some(front) = s.pending.front() {
            let deficit_bits = (f64::from(front.bytes) * 8.0 - s.tokens_bits).max(0.0);
            let wait = SimDuration::from_secs_f64(deficit_bits / rate.max(1.0));
            self.wheel.schedule(now + wait, TimerEvent::Pace(flow));
        } else {
            s.pace_armed = false;
        }
    }

    /// Router tick: close the Eq. 11 interval, run idle eviction, publish
    /// aggregate gauges, and re-arm.
    fn on_tick(&mut self, now: SimTime) {
        // Close the Eq. 11 window against the time it actually covered:
        // under load this tick fires late, and arrivals divided by the
        // nominal interval would read as a phantom overload (see
        // `FeedbackEstimator::tick_elapsed`).
        let elapsed =
            self.last_tick.map_or(self.cfg.feedback_interval, |last| now.duration_since(last));
        self.last_tick = Some(now);
        self.router.estimator.tick_elapsed(self.cfg.id, elapsed);
        self.evictions += self.flows.evict_idle(now, self.cfg.flow_idle_timeout);
        let tel = &self.cfg.telemetry;
        if tel.is_enabled() {
            let t = now.as_secs_f64();
            tel.gauge_set(SERVE_FLOWS, self.flows.len() as f64);
            tel.sample("wire.serve.p", t, self.router.estimator.loss());
            tel.sample("wire.serve.p_fgs", t, self.router.estimator.fgs_loss());
            if let Some(p99) = self.jitter.quantile(0.99) {
                tel.gauge_set(SERVE_PACING_JITTER, p99);
            }
        }
        self.wheel.schedule(now + self.cfg.feedback_interval, TimerEvent::Tick);
    }

    /// Finalizes the run into a report. `end` is the loop's last `now`.
    pub fn report(&self, end: SimTime) -> ServeReport {
        let duration_secs = end.as_secs_f64().max(1e-9);
        ServeReport {
            duration_secs,
            batched: self.cfg.batch,
            peak_flows: self.peak_flows,
            leaked_flows: self.flows.len(),
            hellos: self.hellos,
            hellos_refused: self.hellos_refused,
            byes: self.byes,
            evictions: self.evictions,
            acks: self.acks,
            nacks_ignored: self.nacks_ignored,
            decode_errors: self.decode_errors,
            frames_emitted: self.frames_emitted,
            abandoned_packets: self.abandoned_packets,
            data_sent: self.data_sent,
            datagrams_per_sec: self.data_sent as f64 / duration_secs,
            tx_by_class: self.router.tx_by_class,
            queue_drops_by_class: self.router.drops_by_class,
            unregistered_drops: self.router.unregistered_drops,
            send_drops: self.send_drops.as_ref().map_or(0, |d| d.load(Ordering::Relaxed)),
            timer_events: self.timer_events,
            pacing_jitter_p50_us: self.jitter.quantile(0.50).unwrap_or(0.0) * 1e6,
            pacing_jitter_p99_us: self.jitter.quantile(0.99).unwrap_or(0.0) * 1e6,
        }
    }
}

/// Kernel socket-buffer request for the serve and loadgen sockets. Both
/// modes get it (the comparison stays fair): the Linux default (~208 KiB)
/// queues about 2 ms of traffic at serve rates, so HELLO-refresh waves and
/// ACK floods from a thousand flows overflow it and the shed control
/// datagrams surface as idle-eviction churn, not as any counted drop.
/// 4 MiB sits at the stock `net.core.rmem_max` ceiling.
pub(crate) const SOCKET_BUFFER_BYTES: usize = 4 << 20;

/// Runs `pels serve` until its configured duration elapses.
///
/// # Errors
///
/// Propagates socket setup and hard transport failures.
pub fn run_serve(cfg: ServeConfig) -> io::Result<ServeReport> {
    run_serve_with(cfg, |_| {}, || false)
}

/// Runs `pels serve`, reporting the bound address through `on_ready` (for
/// ephemeral ports) and stopping early when `should_stop` returns true.
///
/// # Errors
///
/// Propagates socket setup and hard transport failures.
pub fn run_serve_with(
    cfg: ServeConfig,
    on_ready: impl FnOnce(SocketAddr),
    should_stop: impl FnMut() -> bool,
) -> io::Result<ServeReport> {
    if cfg.batch {
        let mut t = BatchedUdp::bind(cfg.listen)?;
        t.set_telemetry(cfg.telemetry.clone());
        t.expand_buffers(SOCKET_BUFFER_BYTES);
        let drops = t.send_drops_handle();
        drive(ServeLoop::new(cfg, t, Some(drops)), on_ready, should_stop)
    } else {
        let mut t = UdpTransport::bind(cfg.listen)?;
        t.set_telemetry(cfg.telemetry.clone());
        t.expand_buffers(SOCKET_BUFFER_BYTES);
        let drops = t.send_drops_handle();
        drive(ServeLoop::new(cfg, t, Some(drops)), on_ready, should_stop)
    }
}

fn drive<T: Transport>(
    mut lp: ServeLoop<T>,
    on_ready: impl FnOnce(SocketAddr),
    mut should_stop: impl FnMut() -> bool,
) -> io::Result<ServeReport> {
    let clock = MonotonicClock::new();
    let duration = lp.cfg.duration;
    on_ready(lp.local_addr());
    let mut now = clock.now();
    loop {
        if should_stop() || (!duration.is_zero() && now >= SimTime::ZERO + duration) {
            break;
        }
        let worked = lp.poll(now)?;
        if !worked {
            // Idle: nothing on the socket, no due timers. A short sleep
            // keeps a co-located loadgen (1-core CI) schedulable without
            // hurting the 1 ms wheel granularity much.
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        now = clock.now();
    }
    Ok(lp.report(now))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{MemHub, MemTransport};
    use pels_netsim::packet::Feedback;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn serve_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::new(addr(1));
        cfg.capacity = Rate::from_mbps(10.0);
        cfg
    }

    fn mem_loop(hub: &MemHub, cfg: ServeConfig) -> ServeLoop<MemTransport> {
        ServeLoop::new(cfg, hub.endpoint(addr(1)), None)
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
    fn hello_starts_a_paced_stream_and_bye_ends_it() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        client.send_to(&WireHello { flow: FlowId(7), seq: 0 }.encode(), addr(1)).unwrap();
        // 1 simulated second at 1 ms polls, no feedback: 128 kb/s initial
        // rate = 4 green packets per 10 fps frame.
        for ms in 0..=1000u64 {
            lp.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
            if ms == 500 {
                // refresh liveness mid-run so idle eviction never triggers
                client.send_to(&WireHello { flow: FlowId(7), seq: 1 }.encode(), addr(1)).unwrap();
            }
        }
        assert_eq!(lp.flows(), 1);
        let got = drain(&client);
        assert!((30..=45).contains(&got.len()), "{} packets", got.len());
        let first = WireData::decode(&got[0]).unwrap();
        assert_eq!((first.flow, first.class), (FlowId(7), 0));
        assert!(first.feedback.is_some(), "labels stamped at departure");
        client.send_to(&WireBye { flow: FlowId(7) }.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(1_001_000_000)).unwrap();
        let report = lp.report(SimTime::from_nanos(1_001_000_000));
        assert_eq!((report.leaked_flows, report.byes, report.decode_errors), (0, 1, 0));
        assert!(report.data_sent >= 30);
    }

    #[test]
    fn ack_feedback_drives_the_per_flow_mkc_rate() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        client.send_to(&WireHello { flow: FlowId(1), seq: 0 }.encode(), addr(1)).unwrap();
        lp.poll(SimTime::ZERO).unwrap();
        let before = lp.flows.get(FlowId(1)).unwrap().state.mkc.rate_bps();
        let ack = WireAck {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            rate_echo: before,
            feedback: Some(Feedback::new(AgentId(9), 1, -1.0, 0.3)),
        };
        client.send_to(&ack.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(1_000_000)).unwrap();
        let after = lp.flows.get(FlowId(1)).unwrap().state.mkc.rate_bps();
        assert!(after > before, "{after} vs {before}");
        // Replayed epoch is filtered.
        client.send_to(&ack.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(2_000_000)).unwrap();
        let replayed = lp.flows.get(FlowId(1)).unwrap().state.mkc.rate_bps();
        assert!((replayed - after).abs() < 1.0);
        assert_eq!(lp.acks, 2);
    }

    #[test]
    fn idle_flow_is_evicted_and_its_timers_die_quietly() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        client.send_to(&WireHello { flow: FlowId(3), seq: 0 }.encode(), addr(1)).unwrap();
        // Run well past the 500 ms idle timeout with no HELLO refresh.
        for ms in 0..=1500u64 {
            lp.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        let report = lp.report(SimTime::from_nanos(1_500_000_000));
        assert_eq!((report.leaked_flows, report.evictions), (0, 1));
        // The evicted flow's frame/pace timers fired into a dead entry
        // without panicking, and strict drops cover in-queue leftovers.
        assert!(report.data_sent > 0);
    }

    #[test]
    fn max_flows_cap_refuses_new_registrations() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut cfg = serve_cfg();
        cfg.max_flows = 2;
        let mut lp = mem_loop(&hub, cfg);
        for f in 1..=3u32 {
            client.send_to(&WireHello { flow: FlowId(f), seq: 0 }.encode(), addr(1)).unwrap();
        }
        lp.poll(SimTime::ZERO).unwrap();
        assert_eq!(lp.flows(), 2);
        let report = lp.report(SimTime::from_nanos(1));
        assert_eq!((report.hellos, report.hellos_refused), (2, 1));
        // A refresh of a registered flow still passes at the cap.
        client.send_to(&WireHello { flow: FlowId(1), seq: 1 }.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(1_000_000)).unwrap();
        assert_eq!(lp.report(SimTime::from_nanos(2)).hellos, 3);
    }

    #[test]
    fn shared_router_keeps_strict_priority_across_flows() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut cfg = serve_cfg();
        // Tight shared capacity: two flows at the initial 128 kb/s rate
        // overrun 100 kb/s, so the estimator must report loss.
        cfg.capacity = Rate::from_kbps(100.0);
        let mut lp = mem_loop(&hub, cfg);
        for f in [1u32, 2] {
            client.send_to(&WireHello { flow: FlowId(f), seq: 0 }.encode(), addr(1)).unwrap();
        }
        for ms in 0..=500u64 {
            lp.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
            if ms % 400 == 0 {
                for f in [1u32, 2] {
                    client
                        .send_to(&WireHello { flow: FlowId(f), seq: 1 }.encode(), addr(1))
                        .unwrap();
                }
            }
        }
        assert!(lp.router.estimator.epoch() >= 1);
        let got = drain(&client);
        assert!(!got.is_empty());
        // Both flows share one label namespace: every departure carries
        // the shared router's stamp.
        for d in got.iter().filter(|d| peek_kind(d) == Ok(WireKind::Data)) {
            let p = WireData::decode(d).unwrap();
            assert_eq!(p.feedback.expect("stamped").router, AgentId(1));
        }
    }

    #[test]
    fn batched_departures_coalesce_into_containers() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        client.send_to(&WireHello { flow: FlowId(5), seq: 0 }.encode(), addr(1)).unwrap();
        // Establish the pace chain with regular polls, then stall 200 ms:
        // the tokens matured during the stall admit several packets in one
        // departure batch, whose flush must pack the same-destination
        // packets into shared container datagrams.
        for ms in 0..=50u64 {
            lp.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        lp.poll(SimTime::from_nanos(250_000_000)).unwrap();
        lp.poll(SimTime::from_nanos(252_000_000)).unwrap();
        let got = drain(&client);
        assert!(!got.is_empty());
        let mut packets = 0u64;
        let mut max_per_datagram = 0usize;
        for d in &got {
            assert!(d.len() <= AGGREGATE_BYTES, "container over the cap: {}", d.len());
            let mut off = 0;
            let mut in_this = 0;
            while off < d.len() {
                let len = packet_len(&d[off..]).unwrap();
                WireData::decode(&d[off..off + len]).unwrap();
                off += len;
                in_this += 1;
            }
            assert_eq!(off, d.len(), "container must split into whole packets");
            packets += in_this as u64;
            max_per_datagram = max_per_datagram.max(in_this);
        }
        assert!(max_per_datagram > 1, "no datagram carried more than one packet");
        assert_eq!(packets, lp.data_sent, "data_sent counts wire packets, not datagrams");
    }

    #[test]
    fn per_datagram_baseline_never_coalesces() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut cfg = serve_cfg();
        cfg.batch = false;
        let mut lp = mem_loop(&hub, cfg);
        client.send_to(&WireHello { flow: FlowId(5), seq: 0 }.encode(), addr(1)).unwrap();
        for ms in 0..=50u64 {
            lp.poll(SimTime::from_nanos(ms * 1_000_000)).unwrap();
        }
        lp.poll(SimTime::from_nanos(250_000_000)).unwrap();
        lp.poll(SimTime::from_nanos(252_000_000)).unwrap();
        let got = drain(&client);
        assert!(!got.is_empty());
        // Strict one-packet-per-datagram: every datagram decodes whole.
        for d in &got {
            WireData::decode(d).unwrap();
        }
        assert_eq!(got.len() as u64, lp.data_sent);
    }

    #[test]
    fn timer_wheel_fires_in_deadline_ticks_and_survives_stalls() {
        let mut wheel = TimerWheel::new();
        let mut fired = Vec::new();
        wheel.schedule(SimTime::from_nanos(5_000_000), TimerEvent::Tick);
        wheel.schedule(SimTime::from_nanos(2_500_000_000), TimerEvent::Tick); // past horizon
        wheel.advance(SimTime::from_nanos(4_000_000), &mut fired);
        assert!(fired.is_empty(), "nothing due yet");
        wheel.advance(SimTime::from_nanos(5_000_000), &mut fired);
        assert_eq!(fired.len(), 1, "due event fires in its tick");
        fired.clear();
        // A long stall (beyond the wheel horizon) still fires the far
        // event exactly once.
        wheel.advance(SimTime::from_nanos(10_000_000_000), &mut fired);
        assert_eq!(fired.len(), 1);
        fired.clear();
        wheel.advance(SimTime::from_nanos(11_000_000_000), &mut fired);
        assert!(fired.is_empty(), "no double fire");
    }
}
