//! The wire stack's one server loop: thousands of PELS flows, or one.
//!
//! [`ServeLoop`] is the only place in this crate that drives the paper's
//! control path. `pels serve` runs it on UDP for thousands of
//! flows; `pels live` and the wire chaos matrix run the same loop for one
//! flow against a [`WireReceiver`](crate::WireReceiver) (DESIGN.md §9):
//!
//! * **Flow table** — a [`FlowTable`] keyed by flow id whose per-flow state
//!   ([`ServeFlow`]) wraps the one sender control core, `pels-core`'s
//!   [`FlowControl`] (Eq. 8 / Eq. 4, epoch filter, watchdog, frame plan),
//!   driven by client HELLO (register), ACK (feedback), NACK (repair) and
//!   BYE (teardown, and the end of a stream) packets.
//! * **Timer wheel** — frame emission and token-bucket pacing for every
//!   flow hang off one hashed wheel with 1 ms slots; firing lateness
//!   (actual minus scheduled) is the *pacing jitter* of the report.
//! * **Shared PELS router** — every paced packet passes through one
//!   in-process strict-priority green/yellow/red discipline with a single
//!   Eq. 11 [`FeedbackEstimator`] across all flows, so per-flow MKC rates
//!   converge to the `C/N + α/β` contended operating point exactly as they
//!   would behind a physical bottleneck. No flow's pacer looks at the
//!   router: it counts every paced packet as an arrival and sheds what a
//!   full color queue cannot hold. The router serves at exactly its
//!   configured capacity (it has no cross traffic to borrow from), counts
//!   payload bytes only (the simulator's packets have no header, so `r*`
//!   and `p*` match it numerically). It queues what the pacer decided
//!   about a packet, not its bytes: a packet is encoded once, as it
//!   departs, with the current label and its flow's current rate.
//! * **Batched, coalesced I/O** — a departure is encoded straight into
//!   the container datagram it leaves in (consecutive departures to one
//!   destination share one, up to `AGGREGATE_BYTES`), and containers
//!   leave, as arrivals enter, a batch at a time through
//!   [`Transport::send_batch`]/[`Transport::recv_batch`]; on
//!   [`UdpTransport`] that is one `sendmmsg`/`recvmmsg` per batch instead
//!   of one syscall per datagram.
//!
//! The loop is strict about flows: data for an evicted flow is dropped,
//! never forwarded to a stale address.
//!
//! **Base-layer repair.** Each flow can repair its last [`REPAIR_FRAMES`]
//! frames without retaining them (the base layer's packets follow from the
//! trace, frames are a frame interval apart, the payload is the shared
//! pool) and answers a NACK for a base packet of one of them by queueing a
//! repair that is paced out of the flow's own token bucket as a green
//! packet, after the current frame's base layer and ahead of its
//! enhancement. A repair therefore displaces enhancement traffic instead of
//! adding to it: whatever a NACK flood asks for, the flow admits no more
//! bits per second than its MKC rate and every fresh frame's base layer
//! still goes out first, so answering NACKs can neither turn the server
//! into an amplifier nor starve the stream it repairs. [`REPAIR_TRIES`] per
//! packet and [`REPAIR_BUDGET`] per flow bound the repair work itself (NACKs
//! past either are counted in [`ServeReport::nacks_ignored`]), and a repair
//! still queued when its frame leaves the history is dropped.

use crate::codec::DATA_HEADER_BYTES;
use crate::codec::{packets, peek_kind, WireAck, WireBye, WireData, WireHello, WireKind, WireNack};
use crate::flowtable::{FlowEntry, FlowTable};
use crate::transport::{Datagram, Outbox, Transport, UdpTransport, AGGREGATE_BYTES};
use pels_core::color::Color;
use pels_core::feedback::{FeedbackEstimator, FEEDBACK_INTERVAL};
use pels_core::flow::{CcSpec, FlowControl, Planned, SourceMode};
use pels_core::gamma::GammaConfig;
use pels_core::mkc::MkcConfig;
use pels_fgs::frame::VideoTrace;
use pels_netsim::clock::{Clock, MonotonicClock};
use pels_netsim::hist::Histogram;
use pels_netsim::packet::{AgentId, FlowId, FrameTag};
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_telemetry::{Snapshot, Telemetry};
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
    /// Shared router queue limits in packets per color. The green one is a
    /// minimum: [`ServeLoop::new`] raises it to a frame of base layer from
    /// every admissible flow, so the router never sheds the base layer.
    pub color_limits: [usize; 3],
    /// Hard cap on concurrent flows; HELLOs beyond it are refused.
    pub max_flows: usize,
    /// Include per-flow gauges (`wire.serve.flow.<id>.rate` / `.gamma`) in
    /// every scrape. Off by default: at thousands of flows they multiply
    /// each snapshot's size, so the default publishes aggregates only.
    pub telemetry_per_flow: bool,
    /// Where the driver of this loop publishes [`ServeLoop::scrape`], once
    /// a second and at exit. The loop itself never touches it.
    pub telemetry: Telemetry,
}

impl ServeConfig {
    /// Serve defaults: 100 Mb/s shared capacity, 400-byte packets, a
    /// 10 fps constant trace, paper control gains.
    pub fn new(listen: SocketAddr) -> Self {
        ServeConfig {
            listen,
            capacity: Rate::from_mbps(100.0),
            duration: SimDuration::from_secs(5),
            packet_bytes: 400,
            trace: VideoTrace::constant(300, 10.0, 1_600, 10_000),
            mkc: MkcConfig::default(),
            gamma: GammaConfig::default(),
            feedback_interval: FEEDBACK_INTERVAL,
            color_limits: [0, 8192, 2048],
            max_flows: 4096,
            telemetry_per_flow: false,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Checks the values that arrive from a command line or a file.
    ///
    /// # Errors
    ///
    /// The capacity must be at least 1 b/s (a rate given in Mb/s can round
    /// to 0), a data packet ([`MAX_PACKET_BYTES`]) must fit a peer's receive
    /// slot ([`RX_SLOT_BYTES`]), and the trace must pass
    /// [`VideoTrace::validate`] at that packet size.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity.as_bps() == 0 {
            return Err("capacity must be at least 1 b/s".into());
        }
        if !(1..=MAX_PACKET_BYTES).contains(&self.packet_bytes) {
            return Err(format!(
                "packet_bytes {} outside 1..={MAX_PACKET_BYTES}: header + payload must fit \
                 the {RX_SLOT_BYTES}-byte receive slot",
                self.packet_bytes
            ));
        }
        self.trace.validate(self.packet_bytes)
    }
}

/// End-of-run summary of one serve session (the `pels serve` JSON output).
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Wall-clock seconds the loop ran.
    pub duration_secs: f64,
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
    /// NACKs refused by the repair caps ([`REPAIR_TRIES`] per packet,
    /// [`REPAIR_BUDGET`] per flow).
    pub nacks_ignored: u64,
    /// Base-layer repairs queued in answer to NACKs, all flows.
    pub retransmissions: u64,
    /// Undecodable datagrams at the serve socket.
    pub decode_errors: u64,
    /// BYE/ACK/NACK frames dropped because they came from an address other
    /// than the one their flow registered from.
    pub foreign_control: u64,
    /// Video frames emitted across all flows.
    pub frames_emitted: u64,
    /// Packets abandoned because their frame interval expired unsent.
    pub abandoned_packets: u64,
    /// Data packets that left the shared router, all flows: wire packets,
    /// counted before they share container datagrams.
    pub data_sent: u64,
    /// `data_sent / duration_secs`: packets, not datagrams, per second.
    pub datagrams_per_sec: f64,
    /// Container datagrams handed to [`Transport::send_batch`].
    pub containers_sent: u64,
    /// [`Transport::send_batch`] calls that carried them.
    pub send_batches: u64,
    /// Packets paced into the shared router per color class (green,
    /// yellow, red), repairs included: what the flows sent.
    pub paced_by_class: [u64; 3],
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
    /// 99th-percentile timer-event lateness, microseconds.
    pub pacing_jitter_p99_us: f64,
    /// The shared router's Eq. 11 loss `p` when the report was taken.
    pub loss: f64,
    /// Its FGS-layer loss `p_FGS` (the γ controller's input).
    pub fgs_loss: f64,
}

/// A read-only snapshot of one flow ([`ServeLoop::flow`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowView {
    /// The MKC sending rate, bits/s.
    pub rate_bps: f64,
    /// The partition fraction γ.
    pub gamma: f64,
    /// Frames emitted.
    pub frames_sent: u64,
    /// Base-layer repairs queued in answer to NACKs.
    pub retransmissions: u64,
    /// Stale-feedback decays applied by the watchdog.
    pub watchdog_trips: u64,
}

/// Frames whose base layer a flow keeps repairable.
pub use pels_core::source::REPAIR_FRAMES;
/// Identifier the shared router stamps into its feedback labels.
const ROUTER_ID: AgentId = AgentId(1);
/// Flow-table idle eviction timeout (a HELLO refresh keeps a flow live).
pub const FLOW_IDLE_TIMEOUT: SimDuration = SimDuration::from_millis(500);
/// Repairs a flow grants per packet: a duplicated or replayed NACK cannot
/// make it resend one packet without bound.
pub const REPAIR_TRIES: u8 = 3;
/// Repairs a flow grants over its lifetime.
pub const REPAIR_BUDGET: u64 = 65_536;

/// What a flow that has been NACKed keeps beyond its frame history —
/// allocated by the first NACK it is granted, so a flow that is never NACKed
/// carries one pointer.
#[derive(Debug, Default)]
struct Repairs {
    /// Granted repairs awaiting tokens, each with its frame's emission
    /// time. Not abandoned with the frame plan at a frame boundary, but
    /// dropped once their frame is [`REPAIR_FRAMES`] old.
    queue: VecDeque<Planned>,
    /// Per history slot, the frame it counts for and the repairs granted
    /// per base packet of that frame.
    tries: [(u64, Vec<u8>); REPAIR_FRAMES],
    granted: u64,
}

/// Per-flow serve state: the sender control core plus what is the wire's
/// own — the pacing bucket and the repair ledger. Lives inside the
/// [`FlowTable`] entry, so every byte here is paid per flow at registration.
#[derive(Debug)]
pub struct ServeFlow {
    flow: FlowControl,
    seq: u64,
    /// When the latest frame was emitted. With the trace, that is all a
    /// repair needs remembered: the base layer is never scaled, so which
    /// base packets a frame had, and how long each was, follows from the
    /// trace; frames are a frame interval apart; the payload is the shared
    /// pool.
    last_frame_at: SimTime,
    repairs: Option<Box<Repairs>>,
    tokens_bits: f64,
    last_pace: Option<SimTime>,
    /// Whether a Pace event for this flow is already on the wheel (one
    /// pacing chain per flow, re-armed by frame emission and by repairs).
    pace_armed: bool,
    /// Whether the pacing chain stopped for want of packets since the bucket
    /// was last refilled.
    was_idle: bool,
}

impl ServeFlow {
    fn new(mkc: MkcConfig, gamma: GammaConfig) -> Self {
        ServeFlow {
            flow: FlowControl::new(CcSpec::Mkc(mkc), gamma, SourceMode::Pels),
            seq: 0,
            last_frame_at: SimTime::ZERO,
            repairs: None,
            tokens_bits: 0.0,
            last_pace: None,
            pace_armed: false,
            was_idle: false,
        }
    }

    /// Plans the next frame at the current MKC rate. Returns the packets
    /// abandoned: the previous interval's unsent ones and the repairs that
    /// expired.
    fn emit_frame(&mut self, trace: &VideoTrace, packet_bytes: u32, now: SimTime) -> u64 {
        let mut abandoned = 0;
        // A repair still queued when its frame leaves the history has
        // missed every deadline it could have served: the queue holds at
        // most `REPAIR_TRIES` repairs of each base packet of the last
        // `REPAIR_FRAMES` frames, whatever the NACK stream.
        if let Some(r) = &mut self.repairs {
            let (queued, next) = (r.queue.len(), self.flow.frames_planned());
            r.queue.retain(|p| p.tag.frame + REPAIR_FRAMES as u64 > next);
            abandoned += (queued - r.queue.len()) as u64;
        }
        self.last_frame_at = now;
        abandoned + self.flow.plan_next(trace, packet_bytes)
    }

    /// Whether the pacer's next packet is a repair: repairs go out after the
    /// current frame's base layer, so no NACK stream can starve it, and
    /// ahead of its enhancement, which is what they displace.
    fn repair_is_next(&self) -> bool {
        self.repairs.as_ref().is_some_and(|r| !r.queue.is_empty())
            && self.flow.head().is_none_or(|p| p.class != 0)
    }

    /// The packet the pacer sends next.
    fn head(&self) -> Option<Planned> {
        if self.repair_is_next() {
            self.repairs.as_ref()?.queue.front().copied()
        } else {
            self.flow.head()
        }
    }

    fn pop_head(&mut self) {
        if !self.repair_is_next() {
            self.flow.pop();
        } else if let Some(r) = &mut self.repairs {
            r.queue.pop_front();
        }
    }

    fn retransmissions(&self) -> u64 {
        self.repairs.as_ref().map_or(0, |r| r.granted)
    }

    /// Answers one NACK: `Some(true)` queued a repair, `Some(false)` hit a
    /// cap, `None` named nothing repairable.
    ///
    /// Only the base layer is repairable. Enhancement is prefix-decodable
    /// and loss-tolerant by design (red loss *is* the γ signal, Eq. 4), and
    /// at the MKC operating point its tail is clipped every interval:
    /// repairing it would displace the next frame's packets into
    /// abandonment, whose NACKs displace the next — a self-sustaining storm.
    fn grant_repair(
        &mut self,
        tag: FrameTag,
        trace: &VideoTrace,
        packet_bytes: u32,
        frame_interval: SimDuration,
    ) -> Option<bool> {
        // Frames back from the latest one, if the history still holds it.
        let age = self.flow.frames_planned().checked_sub(1)?.checked_sub(tag.frame)?;
        if age >= REPAIR_FRAMES as u64 {
            return None;
        }
        // The packet's length, if the base layer reaches that index.
        let base_bytes = trace.frame(tag.frame).base_bytes;
        let before = u32::from(tag.index) * packet_bytes;
        let bytes = base_bytes.checked_sub(before).filter(|&b| b > 0)?.min(packet_bytes);
        let base = base_bytes.div_ceil(packet_bytes) as u16;

        let slot = (tag.frame % REPAIR_FRAMES as u64) as usize;
        let repairs = self.repairs.get_or_insert_with(Box::default);
        let (counted, tries) = &mut repairs.tries[slot];
        if *counted != tag.frame || tries.is_empty() {
            *counted = tag.frame;
            tries.clear();
            tries.resize(usize::from(base), 0);
        }
        let tries = &mut tries[usize::from(tag.index)];
        if repairs.granted >= REPAIR_BUDGET || *tries >= REPAIR_TRIES {
            return Some(false);
        }
        *tries += 1;
        repairs.granted += 1;
        // Index, base count and length are the server's own. The frame's
        // packet count is the receiver's, which learned it from the packets
        // of the frame that did arrive; the emission time is reckoned back
        // from the latest frame, give or take timer lateness.
        let tag = FrameTag { total: tag.total.max(base), base, ..tag };
        let emitted_at = SimTime::from_nanos(
            self.last_frame_at.as_nanos().saturating_sub(frame_interval.as_nanos() * age),
        );
        repairs.queue.push_back(Planned { bytes, class: 0, tag, repair_of: Some(emitted_at) });
        Some(true)
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

/// Datagrams per batch I/O call: the size of the receive ring and the
/// count of departed packets that flushes without waiting for
/// [`FLUSH_INTERVAL`].
pub(crate) const IO_BATCH: usize = 64;

/// Receive-slot capacity of every endpoint in this crate. Must hold the
/// largest container a peer can send ([`AGGREGATE_BYTES`]); anything longer
/// is truncated by the socket and surfaces as a decode error.
pub const RX_SLOT_BYTES: usize = 2048;
const _: () = assert!(AGGREGATE_BYTES <= RX_SLOT_BYTES);

/// Largest data payload whose packet still fits a receive slot.
pub const MAX_PACKET_BYTES: u32 = (RX_SLOT_BYTES - DATA_HEADER_BYTES) as u32;

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
    /// deadline, and spins at poll frequency (`tests/wire_budget.rs` holds
    /// the loop to 1.5 timer events per packet sent). Not-yet-due events
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
            // A drained slot gives its buffer back: the wheel holds at most
            // two live events per flow, while a slot's high-water mark is the
            // largest burst that ever shared its millisecond (every flow at
            // once after a host stall), and 2048 slots keeping theirs is 18
            // to 26 KiB per flow at 4096 flows, by where the stalls fell.
            if slot.is_empty() {
                slot.shrink_to_fit();
            }
        }
        self.cursor = target;
    }
}

/// What the pacer decided about one packet, waiting in the shared router:
/// 64 bytes, where its encoding is 78 plus the payload.
#[derive(Debug, Clone, Copy)]
struct Departure {
    flow: FlowId,
    seq: u64,
    /// When the flow paced it, or — a repair — when its frame was emitted.
    sent_at: SimTime,
    plan: Planned,
}

/// The shared in-process PELS router: one Eq. 11 estimator and one
/// green/yellow/red strict-priority discipline across all flows.
///
/// [`admit`](Self::admit) alone counts Eq. 11 arrivals and decides drops: a
/// packet that meets a full color queue is shed before any work is done on
/// it. No sender reads the queues; overload reaches the flows as `p`. The
/// queues hold [`Departure`]s — plans, not bytes — and
/// [`drain`](Self::drain) is the one place a data packet is encoded.
#[derive(Debug)]
struct ServeRouter {
    estimator: FeedbackEstimator,
    queues: [VecDeque<Departure>; 3],
    budget_bits: f64,
    last_drain: Option<SimTime>,
    capacity_bps: f64,
    color_limits: [usize; 3],
    tx_by_class: [u64; 3],
    drops_by_class: [u64; 3],
    unregistered_drops: u64,
}

impl ServeRouter {
    fn new(capacity: Rate, interval: SimDuration, color_limits: [usize; 3]) -> Self {
        ServeRouter {
            estimator: FeedbackEstimator::new(capacity, interval),
            queues: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            budget_bits: 0.0,
            last_drain: None,
            capacity_bps: capacity.as_bps() as f64,
            color_limits,
            tx_by_class: [0; 3],
            drops_by_class: [0; 3],
            unregistered_drops: 0,
        }
    }

    /// Counts one paced packet's arrival (payload bits) for Eq. 11 and
    /// queues it, or drops it if its color queue is full.
    fn admit(&mut self, packet: Departure) {
        self.estimator.on_arrival(packet.plan.bytes, packet.plan.class);
        let c = packet.plan.class.min(2) as usize;
        if self.queues[c].len() >= self.color_limits[c] {
            self.drops_by_class[c] += 1;
        } else {
            self.queues[c].push_back(packet);
        }
    }

    /// Serves the color queues in strict priority within the accumulated
    /// byte budget, resolving each packet's destination through the flow
    /// table (strict: a dead flow's packet is dropped, costing no budget)
    /// and encoding it — with the current label, the flow's current rate
    /// and `payload`'s bytes — into `out` for one batched send.
    fn drain(
        &mut self,
        now: SimTime,
        flows: &FlowTable<ServeFlow>,
        payload: &[u8],
        out: &mut Outbox,
    ) {
        if let Some(last) = self.last_drain {
            let dt = now.duration_since(last).as_secs_f64();
            // Credit is capped at one interval's worth so an idle spell
            // cannot bank an arbitrary burst — but the bucket must hold at
            // least one full datagram, or a capacity below ~1 MTU per
            // interval deadlocks the queue (bucket depth ≥ MTU rule).
            const MAX_DATAGRAM_BITS: f64 = 2048.0 * 8.0;
            let max_credit = (self.capacity_bps * self.estimator.interval().as_secs_f64())
                .max(MAX_DATAGRAM_BITS);
            self.budget_bits = (self.budget_bits + self.capacity_bps * dt).min(max_credit);
        }
        self.last_drain = Some(now);
        let label = self.estimator.label(ROUTER_ID);
        loop {
            let Some(class) = (0..3).find(|&c| !self.queues[c].is_empty()) else {
                return;
            };
            let Departure { flow, seq, sent_at, plan } = self.queues[class][0];
            let cost = f64::from(plan.bytes) * 8.0;
            if self.budget_bits < cost {
                return;
            }
            self.queues[class].pop_front();
            let Some(entry) = flows.get(flow) else {
                self.unregistered_drops += 1;
                continue;
            };
            self.budget_bits -= cost;
            self.tx_by_class[class] += 1;
            let packet = WireData {
                flow,
                seq,
                tag: plan.tag,
                class: plan.class,
                retransmission: plan.repair_of.is_some(),
                sent_at,
                // The label and the rate it will be applied to leave
                // together: Eq. 8 steps from the rate in effect when `p` was
                // measured, and a red packet can wait out seconds of yellow
                // backlog — paired with a fresh label, the rate it was paced
                // at would fling the controller back to wherever it was then.
                rate_echo: entry.state.flow.rate_bps(),
                feedback: Some(label),
                payload: &payload[..plan.bytes as usize],
            };
            let len = DATA_HEADER_BYTES + packet.payload.len();
            out.push(len, entry.addr, |buf| packet.append_to(buf));
        }
    }
}

/// The live entry of `flow` when `from` is the address it registered from.
/// A BYE, ACK or NACK from anywhere else is counted in `foreign` and gets no
/// entry: otherwise any host could tear a stream down or steer its rate and
/// γ. (A HELLO still rebinds the address; see ROADMAP item 3's cookie.)
fn owned_entry<'a>(
    flows: &'a mut FlowTable<ServeFlow>,
    foreign: &mut u64,
    flow: FlowId,
    from: SocketAddr,
) -> Option<&'a mut FlowEntry<ServeFlow>> {
    let entry = flows.get_mut(flow)?;
    if entry.addr != from {
        *foreign += 1;
        return None;
    }
    Some(entry)
}

/// The serve event loop as a `poll(now)` state machine over any
/// [`Transport`] — `run_serve_with` drives it against wall time on UDP, tests
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
    /// Departed packets, in their containers, awaiting one batched send.
    outbox: Outbox,
    /// Deadline for flushing a part-full `outbox` (armed when it goes
    /// non-empty; see [`FLUSH_INTERVAL`]).
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
    foreign_control: u64,
    byes: u64,
    evictions: u64,
    acks: u64,
    nacks_ignored: u64,
    retransmissions: u64,
    decode_errors: u64,
    frames_emitted: u64,
    abandoned_packets: u64,
    paced_by_class: [u64; 3],
    data_sent: u64,
    timer_events: u64,
}

impl<T: Transport> ServeLoop<T> {
    /// Wraps `transport` in a serve loop. `send_drops` is the transport's
    /// swallowed-send counter when it has one (UDP backends).
    pub fn new(cfg: ServeConfig, transport: T, send_drops: Option<Arc<AtomicU64>>) -> Self {
        // After a host stall every flow's frame timer can come due in one
        // poll; the green queue must hold all of those base layers, or the
        // shared router drops what PELS exists to protect.
        let base_packets = cfg.trace.iter().map(|f| f.base_bytes).max().unwrap_or(0);
        let base_packets = base_packets.div_ceil(cfg.packet_bytes.max(1)) as usize;
        let [green, yellow, red] = cfg.color_limits;
        let color_limits = [green.max(cfg.max_flows.saturating_mul(base_packets)), yellow, red];
        let router = ServeRouter::new(cfg.capacity, cfg.feedback_interval, color_limits);
        let rx_ring = (0..IO_BATCH).map(|_| Datagram::slot(RX_SLOT_BYTES)).collect();
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
            outbox: Outbox::default(),
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
            foreign_control: 0,
            byes: 0,
            evictions: 0,
            acks: 0,
            nacks_ignored: 0,
            retransmissions: 0,
            decode_errors: 0,
            frames_emitted: 0,
            abandoned_packets: 0,
            paced_by_class: [0; 3],
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

    /// What `flow` is doing right now, if it is registered.
    pub fn flow(&self, flow: FlowId) -> Option<FlowView> {
        let s = &self.flows.get(flow)?.state;
        Some(FlowView {
            rate_bps: s.flow.rate_bps(),
            gamma: s.flow.gamma(),
            frames_sent: s.flow.frames_planned(),
            retransmissions: s.retransmissions(),
            watchdog_trips: s.flow.mkc().map_or(0, |m| m.stale_decays()),
        })
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
        // Departures: strict-priority drain, accumulated until a batch's
        // worth of packets has left (or the flush deadline passes) so each
        // send_batch call carries enough to amortize a syscall over.
        let was_empty = self.outbox.packets() == 0;
        self.router.drain(now, &self.flows, &self.payload_pool, &mut self.outbox);
        let departed = self.outbox.packets();
        if was_empty && departed > 0 {
            self.flush_due = now + FLUSH_INTERVAL;
        }
        if departed > 0 && (departed >= IO_BATCH || now >= self.flush_due) {
            work = true;
            self.data_sent += departed as u64;
            self.outbox.flush(&self.transport)?;
        }
        Ok(work)
    }

    /// Handles every wire packet of a (possibly coalesced) datagram; a
    /// malformed head costs the rest of the container and one decode error.
    fn on_container(&mut self, now: SimTime, buf: &[u8], from: SocketAddr) {
        for packet in packets(buf) {
            match packet {
                Ok(packet) => self.on_datagram(now, packet, from),
                Err(_) => self.on_decode_error(),
            }
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
                self.on_ack(now, &ack, from);
            }
            Ok(WireKind::Bye) => {
                let Ok(bye) = WireBye::decode(buf) else {
                    return self.on_decode_error();
                };
                if owned_entry(&mut self.flows, &mut self.foreign_control, bye.flow, from).is_some()
                {
                    self.flows.bye(bye.flow);
                    self.byes += 1;
                }
            }
            Ok(WireKind::Nack) => {
                let Ok(nack) = WireNack::decode(buf) else {
                    return self.on_decode_error();
                };
                self.on_nack(now, &nack, from);
            }
            _ => self.on_decode_error(),
        }
    }

    fn on_decode_error(&mut self) {
        self.decode_errors += 1;
    }

    fn on_ack(&mut self, now: SimTime, ack: &WireAck, from: SocketAddr) {
        let Some(entry) = owned_entry(&mut self.flows, &mut self.foreign_control, ack.flow, from)
        else {
            return;
        };
        self.acks += 1;
        if let Some(fb) = ack.feedback {
            entry.state.flow.on_feedback(now, ack.rate_echo, &fb);
        }
    }

    /// Queues a base-layer repair if the flow still holds the packet and
    /// its caps allow, and makes sure the flow's pacing chain is running.
    fn on_nack(&mut self, now: SimTime, nack: &WireNack, from: SocketAddr) {
        let Some(entry) = owned_entry(&mut self.flows, &mut self.foreign_control, nack.flow, from)
        else {
            return;
        };
        let s = &mut entry.state;
        match s.grant_repair(nack.tag, &self.cfg.trace, self.cfg.packet_bytes, self.frame_interval)
        {
            Some(true) => {}
            Some(false) => {
                self.nacks_ignored += 1;
                return;
            }
            None => return,
        }
        self.retransmissions += 1;
        if !s.pace_armed {
            s.pace_armed = true;
            self.wheel.schedule(now, TimerEvent::Pace(nack.flow));
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
        // STALE_TIMEOUT / 4 watchdog cadence (same order of magnitude).
        if s.flow.on_stale_check(now) {
            // Labels are stamped at departure here, so none that arrives
            // is old: a full timeout without a fresh one means the epoch
            // horizon itself is wrong.
            s.flow.reanchor();
        }
        let abandoned = s.emit_frame(&self.cfg.trace, self.cfg.packet_bytes, now);
        let arm_pace = s.flow.queued_len() > 0 && !s.pace_armed;
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

    /// Pace deadline: refill the flow's token bucket and send every packet
    /// it affords into the shared router, then re-arm for the moment the
    /// next packet's tokens mature.
    fn on_pace(&mut self, now: SimTime, flow: FlowId) {
        let Some(entry) = self.flows.get_mut(flow) else {
            return;
        };
        let s = &mut entry.state;
        let packet_bits = f64::from(self.cfg.packet_bytes) * 8.0;
        let rate = s.flow.rate_bps();
        match s.last_pace {
            Some(last) => {
                let dt = now.duration_since(last).as_secs_f64();
                // Bucket depth while the flow has a backlog: one frame
                // interval's worth of tokens (the most `pending` can ever
                // hold), floored at two packets. A two-packet cap clips
                // tokens whenever a pace event fires late — under load the
                // lost credit compounds until frames are abandoned wholesale
                // even though the MKC rate and the socket could both carry
                // them. A flow that had nothing to send banks two packets at
                // most: enough to carry the end of one frame's interval into
                // the next frame, and no more, because banked idle time comes
                // back as a burst at the head of the next frame, the shared
                // router reads the burst as overload and the lull after it
                // as spare capacity, and MKC locks into a limit cycle on the
                // alternating labels (±12 % around `r*` for one flow).
                let depth = if s.was_idle {
                    2.0 * packet_bits
                } else {
                    (rate * self.frame_interval.as_secs_f64()).max(2.0 * packet_bits)
                };
                s.tokens_bits = (s.tokens_bits + rate * dt).min(depth);
            }
            None => s.tokens_bits = packet_bits,
        }
        s.last_pace = Some(now);
        s.was_idle = false;
        while let Some(p) = s.head() {
            let cost = f64::from(p.bytes) * 8.0;
            if s.tokens_bits < cost {
                break;
            }
            s.pop_head();
            s.tokens_bits -= cost;
            // A packet the router sheds was still sent: its sequence
            // number goes with it and the receiver sees the gap.
            let seq = s.seq;
            s.seq += 1;
            self.paced_by_class[usize::from(p.class.min(2))] += 1;
            let sent_at = p.repair_of.unwrap_or(now);
            self.router.admit(Departure { flow, seq, sent_at, plan: p });
        }
        if let Some(front) = s.head() {
            let deficit_bits = (f64::from(front.bytes) * 8.0 - s.tokens_bits).max(0.0);
            let wait = SimDuration::from_secs_f64(deficit_bits / rate.max(1.0));
            self.wheel.schedule(now + wait, TimerEvent::Pace(flow));
        } else {
            s.pace_armed = false;
            s.was_idle = true;
        }
    }

    /// Router tick: close the Eq. 11 interval, run idle eviction, and
    /// re-arm.
    fn on_tick(&mut self, now: SimTime) {
        // Close the Eq. 11 window against the time it actually covered:
        // under load this tick fires late, and arrivals divided by the
        // nominal interval would read as a phantom overload (see
        // `FeedbackEstimator::tick_elapsed`).
        let elapsed =
            self.last_tick.map_or(self.cfg.feedback_interval, |last| now.duration_since(last));
        self.last_tick = Some(now);
        self.router.estimator.tick_elapsed(ROUTER_ID, elapsed);
        self.evictions += self.flows.evict_idle(now, FLOW_IDLE_TIMEOUT);
        self.wheel.schedule(now + self.cfg.feedback_interval, TimerEvent::Tick);
    }

    /// Finalizes the run into a report. `end` is the loop's last `now`.
    pub fn report(&self, end: SimTime) -> ServeReport {
        let duration_secs = end.as_secs_f64().max(1e-9);
        ServeReport {
            duration_secs,
            peak_flows: self.peak_flows,
            leaked_flows: self.flows.len(),
            hellos: self.hellos,
            hellos_refused: self.hellos_refused,
            byes: self.byes,
            evictions: self.evictions,
            acks: self.acks,
            nacks_ignored: self.nacks_ignored,
            retransmissions: self.retransmissions,
            decode_errors: self.decode_errors,
            foreign_control: self.foreign_control,
            frames_emitted: self.frames_emitted,
            abandoned_packets: self.abandoned_packets,
            data_sent: self.data_sent,
            datagrams_per_sec: self.data_sent as f64 / duration_secs,
            containers_sent: self.outbox.containers_sent(),
            send_batches: self.outbox.batches_sent(),
            paced_by_class: self.paced_by_class,
            tx_by_class: self.router.tx_by_class,
            queue_drops_by_class: self.router.drops_by_class,
            unregistered_drops: self.router.unregistered_drops,
            send_drops: self.send_drops.as_ref().map_or(0, |d| d.load(Ordering::Relaxed)),
            timer_events: self.timer_events,
            pacing_jitter_p50_us: self.jitter.quantile(0.50).unwrap_or(0.0) * 1e6,
            pacing_jitter_p99_us: self.jitter.quantile(0.99).unwrap_or(0.0) * 1e6,
            loss: self.router.estimator.loss(),
            fgs_loss: self.router.estimator.fgs_loss(),
        }
    }

    /// [`Self::report`] as a `wire.serve.*` snapshot (plus
    /// `wire.udp.send_drops`) — the wire stack's one scrape, read from the
    /// counters the loop keeps anyway — and, from one walk of the flow
    /// table, the registered flows' mean rate (bits/s), mean γ and how many
    /// sit at `MkcConfig::max_rate`. With
    /// [`ServeConfig::telemetry_per_flow`] every registered flow adds its
    /// rate (bits/s) and γ as `wire.serve.flow.<id>.*` gauges.
    pub fn scrape(&self, now: SimTime) -> Snapshot {
        let r = self.report(now);
        let mut snap = Snapshot::default();
        for (name, count) in [
            ("wire.serve.hellos", r.hellos),
            ("wire.serve.hellos_refused", r.hellos_refused),
            ("wire.serve.byes", r.byes),
            ("wire.serve.evictions", r.evictions),
            ("wire.serve.acks", r.acks),
            ("wire.serve.nacks_ignored", r.nacks_ignored),
            ("wire.serve.retransmissions", r.retransmissions),
            ("wire.serve.decode_errors", r.decode_errors),
            ("wire.serve.foreign_control", r.foreign_control),
            ("wire.serve.frames_emitted", r.frames_emitted),
            ("wire.serve.abandoned_packets", r.abandoned_packets),
            ("wire.serve.tx", r.data_sent),
            ("wire.serve.containers", r.containers_sent),
            ("wire.serve.send_batches", r.send_batches),
            ("wire.serve.unregistered_drops", r.unregistered_drops),
            ("wire.serve.timer_events", r.timer_events),
            ("wire.udp.send_drops", r.send_drops),
        ] {
            snap.counters.insert(name.to_owned(), count);
        }
        for color in Color::ALL {
            for (metric, by_class) in [
                ("paced", r.paced_by_class),
                ("tx", r.tx_by_class),
                ("queue_drops", r.queue_drops_by_class),
            ] {
                let name = format!("wire.serve.{metric}.{}", color.name());
                snap.counters.insert(name, by_class[color.class() as usize]);
            }
        }
        snap.set_gauge("wire.serve.flows", self.flows.len() as f64);
        snap.set_gauge("wire.serve.peak_flows", r.peak_flows as f64);
        snap.set_gauge("wire.serve.p", r.loss);
        snap.set_gauge("wire.serve.p_fgs", r.fgs_loss);
        snap.set_gauge("wire.serve.pacing_jitter", r.pacing_jitter_p99_us / 1e6);
        // The flows are gone from the table by the time a report is taken,
        // so what the controllers are doing is visible only here: a mean
        // rate far from `C/N + α/β`, or flows pinned at `max_rate`, is a
        // control loop that has lost its feedback.
        let max_rate_bps = self.cfg.mkc.max_rate.as_bps() as f64;
        let (mut rate_sum, mut gamma_sum, mut at_max_rate) = (0.0, 0.0, 0u32);
        for (id, entry) in self.flows.iter() {
            let flow = &entry.state.flow;
            rate_sum += flow.rate_bps();
            gamma_sum += flow.gamma();
            at_max_rate += u32::from(flow.rate_bps() >= max_rate_bps);
            if self.cfg.telemetry_per_flow {
                snap.set_gauge(format!("wire.serve.flow.{}.rate", id.0), flow.rate_bps());
                snap.set_gauge(format!("wire.serve.flow.{}.gamma", id.0), flow.gamma());
            }
        }
        let n = self.flows.len().max(1) as f64;
        snap.set_gauge("wire.serve.rate_mean", rate_sum / n);
        snap.set_gauge("wire.serve.gamma_mean", gamma_sum / n);
        snap.set_gauge("wire.serve.flows_at_max_rate", f64::from(at_max_rate));
        snap
    }
}

/// How often the driver of a [`ServeLoop`] publishes its scrape.
pub(crate) const SCRAPE_INTERVAL: SimDuration = SimDuration::from_secs(1);

/// Kernel socket-buffer request for the serve and loadgen sockets: the
/// Linux default (~208 KiB) queues about 2 ms of traffic at serve rates, so
/// HELLO-refresh waves and ACK floods from a thousand flows overflow it and
/// the shed control datagrams surface as idle-eviction churn, not as any
/// counted drop. 4 MiB sits at the stock `net.core.rmem_max` ceiling.
pub(crate) const SOCKET_BUFFER_BYTES: usize = 4 << 20;

/// Runs `pels serve`, reporting the bound address through `on_ready` (for
/// ephemeral ports) and stopping early when `should_stop` returns true.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a config that fails
/// [`ServeConfig::validate`]; otherwise propagates socket setup and hard
/// transport failures.
pub fn run_serve_with(
    cfg: ServeConfig,
    on_ready: impl FnOnce(SocketAddr),
    should_stop: impl FnMut() -> bool,
) -> io::Result<ServeReport> {
    cfg.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let t = UdpTransport::bind(cfg.listen)?;
    t.expand_buffers(SOCKET_BUFFER_BYTES);
    let drops = t.send_drops_handle();
    drive(ServeLoop::new(cfg, t, Some(drops)), on_ready, should_stop)
}

fn drive<T: Transport>(
    mut lp: ServeLoop<T>,
    on_ready: impl FnOnce(SocketAddr),
    mut should_stop: impl FnMut() -> bool,
) -> io::Result<ServeReport> {
    let clock = MonotonicClock::new();
    let duration = lp.cfg.duration;
    let telemetry = lp.cfg.telemetry.clone();
    let mut next_scrape = SimTime::ZERO + SCRAPE_INTERVAL;
    on_ready(lp.local_addr());
    let mut now = clock.now();
    loop {
        if should_stop() || (!duration.is_zero() && now >= SimTime::ZERO + duration) {
            break;
        }
        let worked = lp.poll(now)?;
        if telemetry.is_enabled() && now >= next_scrape {
            telemetry.publish(now.as_secs_f64(), lp.scrape(now));
            next_scrape += SCRAPE_INTERVAL;
        }
        if !worked {
            // Idle: nothing on the socket, no due timers. A short sleep
            // keeps a co-located loadgen (1-core CI) schedulable without
            // hurting the 1 ms wheel granularity much.
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        now = clock.now();
    }
    if telemetry.is_enabled() {
        telemetry.publish(now.as_secs_f64(), lp.scrape(now));
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

    /// Every data packet in `datagrams`, containers walked.
    fn data_packets(datagrams: &[Vec<u8>]) -> Vec<WireData<'_>> {
        datagrams
            .iter()
            .flat_map(|d| packets(d))
            .map(|p| WireData::decode(p.unwrap()).unwrap())
            .collect()
    }

    fn hello(client: &MemTransport, flow: u32) {
        client.send_to(&WireHello { flow: FlowId(flow), seq: 0 }.encode(), addr(1)).unwrap();
    }

    /// Polls once per millisecond over `ms`, refreshing flow 1's HELLO
    /// often enough that idle eviction never triggers.
    fn run_ms(lp: &mut ServeLoop<MemTransport>, client: &MemTransport, ms: std::ops::Range<u64>) {
        for t in ms {
            if t % 400 == 0 {
                hello(client, 1);
            }
            lp.poll(SimTime::from_nanos(t * 1_000_000)).unwrap();
        }
    }

    /// A flow that never hears feedback holds twice the base-layer rate:
    /// every 10 fps frame plans the 1600-byte base layer as four 400-byte
    /// green packets plus four enhancement packets for a repair to displace
    /// (at the 128 kb/s floor the base layer takes every token).
    fn repair_cfg() -> ServeConfig {
        let mut cfg = serve_cfg();
        cfg.mkc.initial = Rate::from_kbps(256.0);
        cfg
    }

    fn nack(frame: u64, index: u16) -> Vec<u8> {
        WireNack { flow: FlowId(1), tag: FrameTag { frame, index, total: 8, base: 4 } }.encode()
    }

    #[test]
    fn hello_starts_a_paced_stream_and_bye_ends_it() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        // 1 simulated second at 1 ms polls, no feedback: 128 kb/s initial
        // rate = 4 green packets per 10 fps frame.
        run_ms(&mut lp, &client, 0..1001);
        assert_eq!(lp.flows(), 1);
        let got = drain(&client);
        assert!((30..=45).contains(&got.len()), "{} packets", got.len());
        let first = WireData::decode(&got[0]).unwrap();
        assert_eq!((first.flow, first.class), (FlowId(1), 0));
        assert!(first.feedback.is_some(), "labels stamped at departure");
        client.send_to(&WireBye { flow: FlowId(1) }.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(1_001_000_000)).unwrap();
        let report = lp.report(SimTime::from_nanos(1_001_000_000));
        assert_eq!((report.leaked_flows, report.byes, report.decode_errors), (0, 1, 0));
        assert!(report.data_sent >= 30);
    }

    #[test]
    fn an_idle_flow_banks_two_packets_not_a_frame() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        // 1 Mb/s pays for 12 500 bytes a frame and the trace has 11 600 to
        // send, so the pacing chain idles through the end of every interval.
        let mut cfg = serve_cfg();
        cfg.mkc.initial = Rate::from_mbps(1.0);
        let mut lp = mem_loop(&hub, cfg);
        run_ms(&mut lp, &client, 0..2_000);
        let paced = |lp: &ServeLoop<MemTransport>| lp.paced_by_class.iter().sum::<u64>();
        for ms in 2_000..2_100 {
            let before = paced(&lp);
            run_ms(&mut lp, &client, ms..ms + 1);
            // Twenty frames of banked idle time would put a whole frame
            // into the router in one poll.
            assert!(paced(&lp) - before <= 3, "{} packets at {ms} ms", paced(&lp) - before);
        }
        assert_eq!(lp.abandoned_packets, 0, "and every frame still goes out whole");
    }

    #[test]
    fn ack_feedback_drives_the_per_flow_mkc_rate() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        run_ms(&mut lp, &client, 0..1);
        let before = lp.flow(FlowId(1)).unwrap().rate_bps;
        let ack = WireAck {
            flow: FlowId(1),
            seq: 0,
            sent_at: SimTime::ZERO,
            rate_echo: before,
            feedback: Some(Feedback::new(AgentId(9), 1, -1.0, 0.3)),
        };
        client.send_to(&ack.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(1_000_000)).unwrap();
        let after = lp.flow(FlowId(1)).unwrap().rate_bps;
        // One MKC step from 128k with p = -1: 128k + 20k + 0.5·128k = 212k,
        // and γ moved toward p_fgs / p_thr = 0.4.
        assert!((after - 212_000.0).abs() < 1.0, "{after} from {before}");
        assert!(lp.flow(FlowId(1)).unwrap().gamma < 0.5);
        // Replayed epoch is filtered.
        client.send_to(&ack.encode(), addr(1)).unwrap();
        lp.poll(SimTime::from_nanos(2_000_000)).unwrap();
        assert!((lp.flow(FlowId(1)).unwrap().rate_bps - after).abs() < 1.0);
        assert_eq!(lp.acks, 2);
    }

    #[test]
    fn a_packet_that_waited_in_the_router_echoes_the_rate_at_departure() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        run_ms(&mut lp, &client, 0..1);
        // A red packet paced at 128 kb/s sits in the shared router — in
        // service it can wait out seconds of yellow backlog — while
        // feedback moves the flow's rate to 212 kb/s.
        offer(&mut lp.router, 1, 2, 400);
        let ack = |epoch: u64, rate_echo: f64, loss: f64| {
            let feedback = Some(Feedback::new(AgentId(9), epoch, loss, 0.0));
            WireAck { flow: FlowId(1), seq: 0, sent_at: SimTime::ZERO, rate_echo, feedback }
                .encode()
        };
        client.send_to(&ack(1, 128_000.0, -1.0), addr(1)).unwrap();
        run_ms(&mut lp, &client, 1..4);
        let got = drain(&client);
        let red: Vec<_> = data_packets(&got).into_iter().filter(|p| p.class == 2).collect();
        assert_eq!(red.len(), 1);
        // It leaves with a fresh label, so it must leave with the rate that
        // label's `p` was measured against: stepping Eq. 8 from the echo of
        // this packet's ACK moves the rate on from 212 kb/s, not back to
        // 128 kb/s + α.
        assert!(red[0].feedback.is_some());
        assert!((red[0].rate_echo - 212_000.0).abs() < 1.0, "echo {}", red[0].rate_echo);
        client.send_to(&ack(2, red[0].rate_echo, 0.0), addr(1)).unwrap();
        run_ms(&mut lp, &client, 4..5);
        let after = lp.flow(FlowId(1)).unwrap().rate_bps;
        assert!((after - 232_000.0).abs() < 1.0, "{after}");
    }

    #[test]
    fn idle_flow_is_evicted_and_its_timers_die_quietly() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        hello(&client, 3);
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
        for f in 1..=3 {
            hello(&client, f);
        }
        lp.poll(SimTime::ZERO).unwrap();
        assert_eq!(lp.flows(), 2);
        let report = lp.report(SimTime::from_nanos(1));
        assert_eq!((report.hellos, report.hellos_refused), (2, 1));
        // A refresh of a registered flow still passes at the cap.
        hello(&client, 1);
        lp.poll(SimTime::from_nanos(1_000_000)).unwrap();
        assert_eq!(lp.report(SimTime::from_nanos(2)).hellos, 3);
    }

    #[test]
    fn overload_produces_positive_loss_and_stamped_labels() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut cfg = serve_cfg();
        // Tight shared capacity: two flows at the initial 128 kb/s rate
        // overrun 100 kb/s, so the estimator must report loss.
        cfg.capacity = Rate::from_kbps(100.0);
        let mut lp = mem_loop(&hub, cfg);
        hello(&client, 2);
        run_ms(&mut lp, &client, 0..501);
        assert!(lp.router.estimator.epoch() >= 1);
        assert!(lp.router.estimator.loss() > 0.0, "loss {}", lp.router.estimator.loss());
        let got = drain(&client);
        let got = data_packets(&got);
        assert!(got.iter().any(|p| p.flow == FlowId(1)) && got.iter().any(|p| p.flow == FlowId(2)));
        // Both flows share one label namespace: every departure carries
        // the shared router's stamp, and once an interval has closed, its
        // positive loss.
        for p in &got {
            assert_eq!(p.feedback.expect("stamped").router, ROUTER_ID);
        }
        assert!(got.last().unwrap().feedback.unwrap().loss > 0.0);
    }

    /// What `on_pace` does with a packet its bucket affords.
    fn offer(r: &mut ServeRouter, flow: u32, class: u8, bytes: u32) {
        let tag = FrameTag { frame: 0, index: 0, total: 1, base: 1 };
        let plan = Planned { bytes, class, tag, repair_of: None };
        r.admit(Departure { flow: FlowId(flow), seq: 0, sent_at: SimTime::ZERO, plan });
    }

    /// Drains `r` at `now` into an outbox flushed at `addr(2)`'s endpoint:
    /// the datagrams that client receives.
    fn departures(r: &mut ServeRouter, now: &[u64], flows: &FlowTable<ServeFlow>) -> Vec<Vec<u8>> {
        let hub = MemHub::new();
        let (server, client) = (hub.endpoint(addr(1)), hub.endpoint(addr(2)));
        let mut out = Outbox::default();
        for &ns in now {
            r.drain(SimTime::from_nanos(ns), flows, &[0u8; 400], &mut out);
        }
        out.flush(&server).unwrap();
        drain(&client)
    }

    fn router(capacity: Rate, color_limits: [usize; 3]) -> ServeRouter {
        ServeRouter::new(capacity, FEEDBACK_INTERVAL, color_limits)
    }

    /// A table with flow 1 registered at `addr(2)`.
    fn one_flow() -> FlowTable<ServeFlow> {
        let mut flows = FlowTable::new();
        flows.hello(FlowId(1), addr(2), SimTime::ZERO, || {
            ServeFlow::new(MkcConfig::default(), GammaConfig::default())
        });
        flows
    }

    #[test]
    fn serves_green_before_enhancement() {
        let mut r = router(Rate::from_mbps(1.0), [8, 8, 8]);
        // Interleave red, yellow, green; the budget only covers a few, so
        // the greens must all leave first.
        for _ in 0..4 {
            for class in [2, 1, 0] {
                offer(&mut r, 1, class, 400);
            }
        }
        // 1 Mb/s × 10 ms = 10_000 bits ≈ 3.1 packets of 400 payload bytes,
        // which leave for the flow's address in one container.
        let out = departures(&mut r, &[0, 10_000_000], &one_flow());
        assert_eq!(out.len(), 1);
        assert_eq!(data_packets(&out).iter().map(|p| p.class).collect::<Vec<_>>(), [0, 0, 0]);
        assert_eq!(r.tx_by_class, [3, 0, 0]);
        assert_eq!([0, 1, 2].map(|c| r.queues[c].len()), [1, 4, 4]);
    }

    #[test]
    fn full_color_queue_drops_only_that_color() {
        let mut r = router(Rate::from_kbps(64.0), [2, 2, 1]);
        for _ in 0..3 {
            offer(&mut r, 1, 2, 100);
            offer(&mut r, 1, 0, 100);
        }
        assert_eq!(r.drops_by_class, [1, 0, 2]);
    }

    #[test]
    fn a_stall_that_matures_every_flows_base_layer_at_once_loses_no_green() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let cfg = ServeConfig::new(addr(1));
        let flows = cfg.max_flows as u64;
        let mut lp = mem_loop(&hub, cfg);
        for f in 1..=flows {
            hello(&client, f as u32);
        }
        // Every admissible flow registers and paces the first packet of its
        // first frame; then the host stalls for a frame interval and the
        // other three mature in all 4096 buckets at once.
        run_ms(&mut lp, &client, 0..2);
        let before = lp.paced_by_class[0];
        run_ms(&mut lp, &client, 99..100);
        assert_eq!(lp.paced_by_class[0] - before, 3 * flows, "green paced in one poll");
        assert_eq!(lp.router.drops_by_class, [0; 3]);
    }

    #[test]
    fn dead_flows_packets_are_dropped_without_spending_budget() {
        let mut r = router(Rate::from_mbps(10.0), [8, 8, 8]);
        // Flow 9 was never registered (or said BYE with this still queued).
        offer(&mut r, 9, 0, 100);
        offer(&mut r, 1, 0, 100);
        // 10 Mb/s × 80 µs = 800 bits: exactly the one registered packet.
        let out = departures(&mut r, &[0, 80_000], &one_flow());
        assert_eq!((r.unregistered_drops, out.len(), r.tx_by_class), (1, 1, [1, 0, 0]));
        assert_eq!(WireData::decode(&out[0]).unwrap().flow, FlowId(1));
    }

    #[test]
    fn stale_decay_reanchors_a_poisoned_epoch_horizon() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        run_ms(&mut lp, &client, 0..1);
        let rate = |lp: &ServeLoop<MemTransport>| lp.flow(FlowId(1)).unwrap().rate_bps;
        let ack = |epoch: u64, rate: f64| {
            WireAck {
                flow: FlowId(1),
                seq: 0,
                sent_at: SimTime::ZERO,
                rate_echo: rate,
                feedback: Some(Feedback::new(AgentId(9), epoch, -1.0, 0.3)),
            }
            .encode()
        };
        // A corrupted-but-decodable label jumps the horizon to u64::MAX:
        // from here on, every genuine epoch looks stale.
        client.send_to(&ack(u64::MAX, rate(&lp)), addr(1)).unwrap();
        run_ms(&mut lp, &client, 1..2);
        let poisoned = rate(&lp);
        client.send_to(&ack(2, poisoned), addr(1)).unwrap();
        run_ms(&mut lp, &client, 2..3);
        assert!((rate(&lp) - poisoned).abs() < 1.0, "genuine epoch rejected while poisoned");
        // Starve the watchdog past STALE_TIMEOUT (300 ms): it decays the
        // rate AND resets the filter so the loop can resynchronize.
        run_ms(&mut lp, &client, 3..1_000);
        assert!(lp.flow(FlowId(1)).unwrap().watchdog_trips > 0, "watchdog never fired");
        let decayed = rate(&lp);
        assert!(decayed < poisoned, "decay should have lowered the rate");
        client.send_to(&ack(3, decayed), addr(1)).unwrap();
        run_ms(&mut lp, &client, 1_000..1_002);
        assert!(rate(&lp) > decayed, "post-reset feedback must drive the rate again");
    }

    #[test]
    fn nack_triggers_marked_retransmission() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, repair_cfg());
        // Emit frames 0 and 1 and let their packets out.
        run_ms(&mut lp, &client, 0..200);
        assert!(data_packets(&drain(&client)).iter().all(|p| !p.retransmission));
        client.send_to(&nack(0, 1), addr(1)).unwrap();
        // Not repairable, and not counted: enhancement indices and frames
        // never sent.
        client.send_to(&nack(0, 4), addr(1)).unwrap();
        client.send_to(&nack(77, 0), addr(1)).unwrap();
        run_ms(&mut lp, &client, 200..400);
        let got = drain(&client);
        let retx: Vec<_> = data_packets(&got).into_iter().filter(|p| p.retransmission).collect();
        assert_eq!(retx.len(), 1);
        assert_eq!((retx[0].tag.frame, retx[0].tag.index, retx[0].class), (0, 1, 0));
        // The repair keeps its frame's emission timestamp.
        assert_eq!(retx[0].sent_at, SimTime::ZERO);
        let report = lp.report(SimTime::from_nanos(400_000_000));
        assert_eq!((report.retransmissions, report.nacks_ignored), (1, 0));
        assert_eq!(lp.flow(FlowId(1)).unwrap().retransmissions, 1);
    }

    #[test]
    fn nack_flood_is_capped_per_packet_and_by_budget() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        run_ms(&mut lp, &client, 0..200);
        // Ten identical NACKs for one packet: only REPAIR_TRIES repairs.
        for _ in 0..10 {
            client.send_to(&nack(0, 1), addr(1)).unwrap();
        }
        run_ms(&mut lp, &client, 200..201);
        assert_eq!(lp.flow(FlowId(1)).unwrap().retransmissions, u64::from(REPAIR_TRIES));
        assert_eq!(lp.nacks_ignored, 10 - u64::from(REPAIR_TRIES));
        // The lifetime budget gates even fresh packets.
        lp.flows.get_mut(FlowId(1)).unwrap().state.repairs.as_mut().unwrap().granted =
            REPAIR_BUDGET;
        client.send_to(&nack(1, 2), addr(1)).unwrap();
        run_ms(&mut lp, &client, 201..202);
        assert_eq!(lp.flow(FlowId(1)).unwrap().retransmissions, REPAIR_BUDGET);
        assert_eq!(lp.nacks_ignored, 11 - u64::from(REPAIR_TRIES));
    }

    #[test]
    fn nack_flood_never_exceeds_the_mkc_rate() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, repair_cfg());
        let rate_bps = 256_000.0;
        let (mut bits, mut fresh_green) = (0u64, 0u64);
        let mut repairs = std::collections::HashMap::new();
        for ms in 0..3_000u64 {
            // Every 10 ms, ask again for the whole base layer of the last
            // eight frames.
            if ms % 10 == 0 {
                for frame in (ms / 100).saturating_sub(7)..=ms / 100 {
                    for index in 0..4 {
                        client.send_to(&nack(frame, index), addr(1)).unwrap();
                    }
                }
            }
            run_ms(&mut lp, &client, ms..ms + 1);
            for p in data_packets(&drain(&client)) {
                bits += p.payload.len() as u64 * 8;
                if p.retransmission {
                    *repairs.entry((p.tag.frame, p.tag.index)).or_insert(0u8) += 1;
                } else if p.class == 0 {
                    fresh_green += 1;
                }
            }
            // Whatever is asked of it, the flow's bucket has admitted at
            // most its depth (one frame interval's worth) plus what the
            // MKC rate refilled since.
            let flow = &lp.flows.get(FlowId(1)).unwrap().state;
            assert_eq!(flow.flow.rate_bps(), rate_bps);
            let allowed = rate_bps * (0.1 + (ms + 1) as f64 / 1e3);
            assert!(bits as f64 <= allowed, "{bits} bits by {ms} ms, {allowed} allowed");
            // And it holds no more repairs than its history has packets to
            // repair, REPAIR_TRIES times each.
            let queued = flow.repairs.as_ref().map_or(0, |r| r.queue.len());
            assert!(queued <= REPAIR_FRAMES * 4 * usize::from(REPAIR_TRIES), "{queued} queued");
        }
        assert!(repairs.len() > 20, "repairs were in flight throughout: {}", repairs.len());
        assert!(repairs.values().all(|&n| n <= REPAIR_TRIES), "{repairs:?}");
        assert!(lp.nacks_ignored > 0, "the flood ran into the per-packet cap");
        // The repairs took the enhancement packets' place: the flow still
        // sent at its rate, not beside it, and the base layer of every one
        // of the 30 frames went out untouched.
        assert!(bits as f64 > 0.9 * rate_bps * 3.0, "{bits} bits");
        assert_eq!(fresh_green, 30 * 4);
        assert!(lp.abandoned_packets > 0, "repairs nobody could pace expired");
    }

    #[test]
    fn batched_departures_coalesce_into_containers() {
        let hub = MemHub::new();
        let client = hub.endpoint(addr(2));
        let mut lp = mem_loop(&hub, serve_cfg());
        // Establish flow 1's pace chain with regular polls, then stall
        // 200 ms: the tokens matured during the stall admit several packets
        // into one departure batch, whose flush must pack them into shared
        // container datagrams.
        run_ms(&mut lp, &client, 0..51);
        run_ms(&mut lp, &client, 250..251);
        run_ms(&mut lp, &client, 252..253);
        let got = drain(&client);
        assert!(got.iter().all(|d| d.len() <= AGGREGATE_BYTES), "container over the cap");
        let per_datagram = |d: &Vec<u8>| data_packets(std::slice::from_ref(d)).len();
        assert!(got.iter().map(per_datagram).max() > Some(1), "nothing was coalesced");
        let sent = got.iter().map(per_datagram).sum::<usize>() as u64;
        assert_eq!(sent, lp.data_sent, "data_sent counts wire packets, not datagrams");
    }

    #[test]
    fn sizes_no_peer_could_receive_are_invalid_input() {
        let refused = |edit: fn(&mut ServeConfig)| {
            let mut cfg = serve_cfg();
            cfg.listen = addr(0);
            edit(&mut cfg);
            run_serve_with(cfg, |_| {}, || true).map_err(|e| e.kind())
        };
        assert!(refused(|_| {}).is_ok());
        assert!(refused(|c| c.packet_bytes = MAX_PACKET_BYTES).is_ok());
        // 3000 + 78 bytes would be truncated by every 2048-byte slot;
        // 4 GB would be allocated as the payload pool before that.
        for bad in [
            (|c| c.packet_bytes = 0) as fn(&mut ServeConfig),
            |c| c.packet_bytes = 3_000,
            |c| c.packet_bytes = 4_000_000_000,
            |c| c.trace = VideoTrace::constant(1, 10.0, 0, 1_000),
        ] {
            assert_eq!(refused(bad).unwrap_err(), io::ErrorKind::InvalidInput);
        }
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
