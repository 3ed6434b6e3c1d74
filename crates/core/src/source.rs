//! The PELS streaming source agent.
//!
//! Once per frame interval the source scales the FGS frame to its current
//! MKC rate (Section 2.3/\[5\]), partitions the enhancement bytes into yellow
//! and red according to γ (Section 4.2, Fig. 4 right), packetizes, and paces
//! the packets evenly across the frame interval. Feedback arrives in ACKs;
//! each *fresh* epoch (Section 5.2) drives one MKC step (Eq. 8) and one γ
//! step (Eq. 4).

use crate::color::Color;
pub use crate::flow::{CcSpec, SourceMode};
use crate::flow::{FlowControl, Planned};
use crate::gamma::GammaConfig;
use crate::mkc::{MkcController, STALE_TIMEOUT};
use pels_fgs::frame::VideoTrace;
use pels_fgs::packetize::FramePackets;
use pels_netsim::fasthash::FastMap;
use pels_netsim::packet::{AgentId, FlowId, FrameTag, Packet, PacketKind};
use pels_netsim::port::Port;
use pels_netsim::sim::{Agent, Context};
use pels_netsim::stats::TimeSeries;
use pels_netsim::time::SimDuration;
use std::sync::Arc;

/// Retransmission (ARQ) for the comparator experiments: a flow spec's
/// `arq: Some(ArqConfig {})` answers NACKs from the last
/// [`REPAIR_FRAMES`] frames.
///
/// The paper argues *against* retransmission-based streaming (Section 1:
/// under congestion "even the retransmitted packets are dropped in the same
/// congested queues ... \[and\] miss their decoding deadlines"). Enabling ARQ
/// lets the harness measure exactly that. ARQ has no settings; the struct
/// keeps a config file's `"arq": {…}` meaning on and `"arq": null` off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ArqConfig {}

/// Frames a sender keeps retransmittable, on both stacks: the simulator's
/// ARQ source and the wire server's base-layer repair.
pub const REPAIR_FRAMES: usize = 8;

// Graceful degradation for the many-flow regime (DESIGN.md §11).
//
// When the fair share `C/N` falls below the base-layer floor, MKC pins at
// its minimum rate while the source keeps emitting the full base layer —
// the aggregate green load exceeds the bottleneck, green packets tail-drop,
// and *every* flow's base layer is corrupted (the N≳32 collapse). Two
// stages extend the red-then-yellow shedding past the floor:
//
// 1. **Base thinning** — while fresh feedback shows the controlled rate
//    below the base floor, frames are emitted on a byte budget so the
//    green load tracks the controlled rate instead of overshooting it.
// 2. **Starvation (self-admission)** — a flow whose sustainable goodput
//    `r·(1 − p̂)` stays below the floor for `PATIENCE` stops emitting
//    entirely and probes the path every `PROBE_INTERVAL`; it resumes once
//    the goodput the smoothed price *implies*, `(α/β)·(1 − p̂)/p̂` (which at
//    the MKC fixed point equals the fair share `C/M` of the admitted set,
//    independent of the starved flow's own decayed rate), clears the floor
//    by `RESUME_HEADROOM` for `RESUME_HOLD`. Patience and resume are
//    staggered by flow id so flows yield (and return) one at a time
//    instead of oscillating in lockstep.
//
// Both stages act only on *fresh* feedback epochs; under stale feedback
// the watchdog owns the rate and the policy stands down.

/// EWMA weight for the smoothed price p̂ (per fresh epoch).
const PRICE_SMOOTHING: f64 = 0.2;
/// Starve when sustainable goodput stays below `FLOOR_HEADROOM ×` the base
/// floor. Kept at 1.0: the admission boundary is exactly "the base layer no
/// longer fits", and a lower value strands perpetual green drops while a
/// higher one starves flows the bottleneck could carry.
const FLOOR_HEADROOM: f64 = 1.0;
/// How long the sustainable rate must sit below the floor before the flow
/// starves itself.
const PATIENCE: SimDuration = SimDuration::from_millis(1_000);
/// Per-flow-id stagger added to [`PATIENCE`], breaking the symmetry of
/// simultaneous starve decisions so flows shed one at a time and the
/// survivors' recovering price can halt the shedding.
const PATIENCE_STEP: SimDuration = SimDuration::from_millis(25);
/// Interval between path probes while starved.
const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// How long the price-implied goodput must clear the resume threshold
/// before a starved flow resumes.
const RESUME_HOLD: SimDuration = SimDuration::from_millis(500);
/// Per-flow-id stagger added to [`RESUME_HOLD`]. Much larger than
/// [`PATIENCE_STEP`] by design — shed fast, rejoin slow: when a capacity
/// event starves many flows at once they all see the same recovered price,
/// and only a rejoin spacing longer than one probe interval lets each
/// returning flow's price impact reach the rest before the next one
/// decides, preventing a mass rejoin → collapse → mass starve oscillation.
const RESUME_STEP: SimDuration = SimDuration::from_millis(500);
/// A starved flow resumes when the price-implied goodput reaches
/// `RESUME_HEADROOM ×` the base floor. Keeping this above
/// [`FLOOR_HEADROOM`] opens a hysteresis band: the admitted set settles
/// where newcomers no longer see enough margin to rejoin, instead of
/// flapping across a single shared boundary.
const RESUME_HEADROOM: f64 = 1.35;

/// Configuration of a [`PelsSource`].
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// Flow identifier (must be unique per source).
    pub flow: FlowId,
    /// The receiving agent.
    pub dst: AgentId,
    /// When the flow starts, relative to simulation start.
    pub start_at: SimDuration,
    /// Optional departure time (absolute simulation time): the source stops
    /// emitting frames once the frame clock reaches it (flash-crowd
    /// departure schedules). `None` streams forever. Note the video trace
    /// loops, so trimming the trace cannot end a flow — only this can.
    pub stop_at: Option<pels_netsim::time::SimTime>,
    /// The video being streamed (looped); immutable, so the sources of a
    /// scenario share one.
    pub trace: Arc<VideoTrace>,
    /// Congestion controller and its gains.
    pub cc: CcSpec,
    /// Partition-controller gains.
    pub gamma: GammaConfig,
    /// Wire packet size (paper: 500 bytes).
    pub packet_bytes: u32,
    /// Marking mode.
    pub mode: SourceMode,
    /// ARQ: answer NACKs with retransmissions.
    pub arq: bool,
    /// Whether to retain per-step time series (rate, γ, feedback).
    pub keep_series: bool,
}

const START_TOKEN: u64 = 0;
const FRAME_TOKEN: u64 = 1;
const PACE_TOKEN: u64 = 2;
/// Periodic stale-feedback watchdog (MKC sources only).
const WATCHDOG_TOKEN: u64 = 3;
/// Path probe while starved (degradation policy, DESIGN.md §11).
const PROBE_TOKEN: u64 = 4;

/// Sentinel frame number marking a starvation probe. Probes travel as green
/// data so routers label them with ordinary feedback, but receivers must
/// keep them out of frame accounting (a probe is not video). Real frame
/// numbers are sequential from 0 and can never reach this value.
pub const PROBE_FRAME: u64 = u64::MAX;

/// The streaming source agent.
#[derive(Debug)]
pub struct PelsSource {
    cfg: SourceConfig,
    port: Port,
    /// Eq. 4, Eq. 8, the epoch filter, the watchdog, frame planning and the
    /// frame being sent; this agent supplies the timers around it.
    flow: FlowControl,
    seq: u64,
    pace_gap: SimDuration,
    /// Packets sent per color (green, yellow, red).
    pub sent_by_color: [u64; 3],
    /// Frame packets that missed their interval and were abandoned.
    pub abandoned_packets: u64,
    /// Retransmissions performed in response to NACKs.
    pub retransmissions: u64,
    /// Smoothed price p̂: EWMA of fresh feedback loss labels. `None` until
    /// the first fresh epoch.
    p_hat: Option<f64>,
    /// When the sustainable rate first dipped below the base floor.
    below_floor_since: Option<pels_netsim::time::SimTime>,
    /// When the price-implied goodput first cleared the resume threshold
    /// while starved.
    resume_ready_since: Option<pels_netsim::time::SimTime>,
    /// Whether the flow has starved itself (emits probes, not frames).
    starved: bool,
    /// Whether a PROBE timer chain is live (prevents duplicate chains
    /// across starve/resume cycles).
    probe_timer_armed: bool,
    /// Byte budget for base thinning, in bits.
    base_credit_bits: f64,
    /// Frames skipped by base thinning (rate below the floor).
    pub skipped_base_frames: u64,
    /// Frame intervals elapsed while starved (nothing emitted).
    pub starved_frames: u64,
    /// Path probes sent while starved.
    pub probes_sent: u64,
    /// Times the flow entered the starved state.
    pub starve_events: u64,
    /// Retransmission buffer: frame -> (emitted_at, the frame's packets).
    retx_buffer: FastMap<u64, (pels_netsim::time::SimTime, FramePackets)>,
    /// `(t, rate kb/s)` after each applied control step.
    pub rate_series: TimeSeries,
    /// `(t, γ)` after each applied control step.
    pub gamma_series: TimeSeries,
    /// `(t, fgs loss)` as fed to the γ controller.
    pub loss_series: TimeSeries,
}

impl PelsSource {
    /// Creates a source sending through `port` (its access link).
    pub fn new(cfg: SourceConfig, port: Port) -> Self {
        let flow = FlowControl::new(cfg.cc, cfg.gamma, cfg.mode);
        PelsSource {
            cfg,
            port,
            flow,
            seq: 0,
            pace_gap: SimDuration::ZERO,
            sent_by_color: [0; 3],
            abandoned_packets: 0,
            retransmissions: 0,
            p_hat: None,
            below_floor_since: None,
            resume_ready_since: None,
            starved: false,
            probe_timer_armed: false,
            base_credit_bits: 0.0,
            skipped_base_frames: 0,
            starved_frames: 0,
            probes_sent: 0,
            starve_events: 0,
            retx_buffer: FastMap::default(),
            rate_series: TimeSeries::new("rate_kbps"),
            gamma_series: TimeSeries::new("gamma"),
            loss_series: TimeSeries::new("fgs_loss"),
        }
    }

    /// The current congestion-controlled sending rate, bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.flow.rate_bps()
    }

    /// The current partition fraction γ.
    pub fn gamma(&self) -> f64 {
        self.flow.gamma()
    }

    /// Flow id of this source.
    pub fn flow(&self) -> FlowId {
        self.cfg.flow
    }

    /// Number of frames emitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.flow.frames_planned()
    }

    /// The sender control core, read-only (shed counts, queue, MKC state).
    pub fn control(&self) -> &FlowControl {
        &self.flow
    }

    /// The MKC controller, when this source runs MKC (staleness state).
    pub fn mkc(&self) -> Option<&MkcController> {
        self.flow.mkc()
    }

    /// Whether the degradation policy has starved this flow (DESIGN.md §11).
    pub fn is_starved(&self) -> bool {
        self.starved
    }

    /// Stale-feedback watchdog cadence (MKC sources only): a quarter of the
    /// timeout, so a fault is detected within 1.25 timeouts of the last
    /// fresh epoch.
    fn watchdog_period(&self) -> Option<SimDuration> {
        self.flow.mkc().map(|_| STALE_TIMEOUT / 4)
    }

    /// Base bitrate of the frame about to be emitted, bits/s.
    fn current_base_floor_bps(&self) -> f64 {
        let trace = &self.cfg.trace;
        f64::from(trace.frame(self.flow.frames_planned()).base_bytes) * 8.0 * trace.fps
    }

    /// Whether fresh feedback is currently steering the controller (the
    /// degradation policy stands down under stale feedback: the PR 1
    /// watchdog owns the rate there, and a stale p̂ must not starve flows).
    fn control_is_fresh(&self) -> bool {
        self.p_hat.is_some() && self.flow.mkc().is_none_or(|m| !m.in_stale_fallback())
    }

    fn emit_frame(&mut self, ctx: &mut Context<'_>) {
        // Departure: past `stop_at` the flow is gone — stop the frame clock
        // (and with it all emission) instead of rescheduling.
        if self.cfg.stop_at.is_some_and(|t| ctx.now >= t) {
            self.abandoned_packets += self.flow.abandon();
            return;
        }

        let interval = SimDuration::from_secs_f64(self.cfg.trace.frame_interval_secs());
        ctx.schedule_timer(interval, FRAME_TOKEN);
        if self.starved {
            // Starved: the frame clock keeps running so frame numbers stay
            // aligned with wall time, but nothing is emitted.
            self.abandoned_packets += self.flow.skip_frame();
            self.starved_frames += 1;
            return;
        }

        let trace = &self.cfg.trace;
        let base_bits = f64::from(trace.frame(self.flow.frames_planned()).base_bytes) * 8.0;
        // Base thinning: with the controlled rate pinned below the base
        // floor, emitting every base frame would overshoot the rate MKC
        // granted — exactly the aggregate overload behind the many-flow
        // collapse. Spend a byte budget that accrues at the controlled rate
        // and skip frames the budget cannot cover. Only fresh feedback may
        // thin: a decayed rate under stale feedback says nothing about the
        // path, and blanking video on it would be self-inflicted damage.
        if self.control_is_fresh() && self.flow.rate_bps() < base_bits * trace.fps {
            self.base_credit_bits += self.flow.rate_bps() / trace.fps;
            if self.base_credit_bits < base_bits {
                self.skipped_base_frames += 1;
                self.abandoned_packets += self.flow.skip_frame();
                return;
            }
            self.base_credit_bits -= base_bits;
        } else {
            self.base_credit_bits = 0.0;
        }
        self.abandoned_packets += self.flow.plan_next(trace, self.cfg.packet_bytes);
        let planned = self.flow.queued_len() as u64;
        if planned == 0 {
            return;
        }
        if self.cfg.arq {
            let frame = self.flow.frames_planned() - 1;
            self.retx_buffer.insert(frame, (ctx.now, self.flow.planned_frame()));
            self.retx_buffer.retain(|&f, _| f + REPAIR_FRAMES as u64 > frame);
        }
        // Pace the frame's packets evenly across the interval (first packet
        // leaves immediately, the last one a gap before the next frame).
        self.pace_gap = interval / planned;
        ctx.schedule_timer(SimDuration::ZERO, PACE_TOKEN);
    }

    /// Puts one data packet on the access link: this is where a planned
    /// packet gets its id, sequence number, send time and the rate echo, as
    /// the wire server builds its datagram at pace time.
    fn transmit(&mut self, p: Planned, ctx: &mut Context<'_>) {
        let mut pkt = Packet::data(self.cfg.flow, ctx.self_id, self.cfg.dst, p.bytes)
            .with_class(p.class)
            .with_seq(self.seq)
            .with_frame(p.tag);
        self.seq += 1;
        pkt.sent_at = p.repair_of.unwrap_or(ctx.now);
        if p.repair_of.is_some() {
            pkt.mark_retransmission();
        }
        pkt.rate_echo = self.flow.rate_bps();
        self.port.send(pkt, ctx);
    }

    /// Releases the head of the queue.
    fn pace_one(&mut self, ctx: &mut Context<'_>) {
        let Some(p) = self.flow.pop() else {
            return;
        };
        if let Some(color) = Color::from_class(p.class) {
            self.sent_by_color[color.class() as usize] += 1;
        }
        self.transmit(p, ctx);
        if self.flow.queued_len() > 0 {
            ctx.schedule_timer(self.pace_gap, PACE_TOKEN);
        }
    }

    /// Answers a NACK by re-queueing the requested packet at the head of
    /// the pacing queue. The retransmission keeps the *original* frame
    /// emission time as `sent_at`, so receiver-side deadline accounting
    /// sees the full decode latency (original wait + NACK round trip).
    fn handle_nack(&mut self, nack: &Packet, ctx: &mut Context<'_>) {
        let Some(tag) = nack.frame() else { return };
        let Some(&(emitted_at, packets)) = self.retx_buffer.get(&tag.frame) else {
            return; // frame already evicted: the data is gone
        };
        let Some(pp) = packets.get(tag.index) else {
            return;
        };
        self.retransmissions += 1;
        let was_idle = self.flow.queued_len() == 0;
        let (bytes, class) = (pp.bytes, Color::from(pp.segment).class());
        self.flow.push_front(Planned { bytes, class, tag, repair_of: Some(emitted_at) });
        if was_idle {
            ctx.schedule_timer(SimDuration::ZERO, PACE_TOKEN);
        }
    }

    /// Advances the starvation state machine on one fresh feedback epoch.
    ///
    /// A flow starves itself when its *sustainable* goodput `r·(1 − p̂)`
    /// sits below the base floor for [`PATIENCE`]: the
    /// bottleneck cannot carry even its base layer, and continuing to emit
    /// green only corrupts every other flow's base. Starved flows probe the
    /// path and resume once the goodput the smoothed price implies clears
    /// the floor with [`RESUME_HEADROOM`] margin. The implied goodput
    /// `(α/β)·(1 − p̂)/p̂` is used rather than the flow's own `r·(1 − p̂)`:
    /// probes arrive slower than the stale timeout, so the watchdog pins a
    /// starved flow's rate near the minimum, while at the MKC fixed point
    /// the implied form equals the admitted set's fair share `C/M` exactly.
    /// An admitted-set equilibrium at capacity keeps `C/M` below the resume
    /// threshold, so the set is stable rather than oscillating.
    fn update_degradation(&mut self, loss: f64, ctx: &mut Context<'_>) {
        let sample = loss.clamp(-1.0, 1.0);
        let p_hat = match self.p_hat {
            Some(prev) => prev + PRICE_SMOOTHING * (sample - prev),
            None => sample,
        };
        self.p_hat = Some(p_hat);
        let id = u64::from(self.cfg.flow.0);
        if self.starved {
            if self.implied_goodput_bps(p_hat) >= RESUME_HEADROOM * self.current_base_floor_bps() {
                let since = *self.resume_ready_since.get_or_insert(ctx.now);
                let stagger = RESUME_STEP.saturating_mul(id);
                if ctx.now.duration_since(since) >= RESUME_HOLD + stagger {
                    self.starved = false;
                    self.resume_ready_since = None;
                    self.base_credit_bits = 0.0;
                    // The FRAME timer kept running; the next tick emits.
                }
            } else {
                self.resume_ready_since = None;
            }
        } else {
            let sustainable = self.flow.rate_bps() * (1.0 - p_hat.max(0.0));
            if sustainable < FLOOR_HEADROOM * self.current_base_floor_bps() {
                let since = *self.below_floor_since.get_or_insert(ctx.now);
                let stagger = PATIENCE_STEP.saturating_mul(id);
                if ctx.now.duration_since(since) >= PATIENCE + stagger {
                    self.starve(ctx);
                }
            } else {
                self.below_floor_since = None;
            }
        }
    }

    /// The goodput the smoothed price implies for a flow joining the
    /// admitted set: the MKC fixed point under `p̂` is `r = α/(β·p̂)`, so
    /// goodput `r·(1 − p̂)` becomes `(α/β)·(1 − p̂)/p̂`. A non-positive
    /// price implies unbounded goodput (spare capacity). Falls back to the
    /// flow's own `r·(1 − p̂)` for non-MKC controllers.
    fn implied_goodput_bps(&self, p_hat: f64) -> f64 {
        match self.flow.mkc() {
            Some(m) if p_hat > 0.0 => {
                let cfg = m.config();
                cfg.alpha_bps / cfg.beta * (1.0 - p_hat) / p_hat
            }
            Some(_) => f64::INFINITY,
            None => self.flow.rate_bps() * (1.0 - p_hat.max(0.0)),
        }
    }

    fn starve(&mut self, ctx: &mut Context<'_>) {
        self.starved = true;
        self.starve_events += 1;
        self.below_floor_since = None;
        self.resume_ready_since = None;
        self.abandoned_packets += self.flow.abandon();
        self.base_credit_bits = 0.0;
        if !self.probe_timer_armed {
            self.probe_timer_armed = true;
            ctx.schedule_timer(PROBE_INTERVAL, PROBE_TOKEN);
        }
    }

    /// One green probe packet soliciting a feedback label while starved.
    /// Tagged with the [`PROBE_FRAME`] sentinel so receivers ACK it without
    /// counting it as video data.
    fn send_probe(&mut self, ctx: &mut Context<'_>) {
        let tag = FrameTag { frame: PROBE_FRAME, index: 0, total: 1, base: 1 };
        let (bytes, class) = (self.cfg.packet_bytes, Color::Green.class());
        self.probes_sent += 1;
        self.transmit(Planned { bytes, class, tag, repair_of: None }, ctx);
    }

    fn apply_feedback(&mut self, pkt: &Packet, ctx: &mut Context<'_>) {
        let Some(fb) = pkt.feedback() else { return };
        // The rate echoed through the ACK is the one in effect when the
        // acknowledged packet was sent.
        if !self.flow.on_feedback(ctx.now, pkt.rate_echo, &fb) {
            return;
        }
        if self.cfg.mode == SourceMode::Pels {
            self.update_degradation(fb.loss, ctx);
        }
        if self.cfg.keep_series {
            let t = ctx.now.as_secs_f64();
            self.rate_series.push(t, self.flow.rate_bps() / 1_000.0);
            self.gamma_series.push(t, self.flow.gamma());
            self.loss_series.push(t, fb.fgs_loss);
        }
    }
}

impl Agent for PelsSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule_timer(self.cfg.start_at, START_TOKEN);
        if let Some(period) = self.watchdog_period() {
            ctx.schedule_timer(self.cfg.start_at + period, WATCHDOG_TOKEN);
        }
    }

    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
        if packet.flow != self.cfg.flow {
            return;
        }
        match packet.kind {
            PacketKind::Ack => self.apply_feedback(&packet, ctx),
            PacketKind::Nack if self.cfg.arq => self.handle_nack(&packet, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        match token {
            START_TOKEN | FRAME_TOKEN => self.emit_frame(ctx),
            PACE_TOKEN => self.pace_one(ctx),
            PROBE_TOKEN => {
                if self.starved {
                    self.send_probe(ctx);
                    ctx.schedule_timer(PROBE_INTERVAL, PROBE_TOKEN);
                } else {
                    self.probe_timer_armed = false;
                }
            }
            WATCHDOG_TOKEN => {
                if self.flow.on_stale_check(ctx.now) {
                    // A stale gap says nothing about the path: patience
                    // accrued before it must not carry across.
                    self.below_floor_since = None;
                    if self.cfg.keep_series {
                        self.rate_series
                            .push(ctx.now.as_secs_f64(), self.flow.rate_bps() / 1_000.0);
                    }
                }
                if let Some(period) = self.watchdog_period() {
                    ctx.schedule_timer(period, WATCHDOG_TOKEN);
                }
            }
            other => unreachable!("unknown timer token {other}"),
        }
    }

    fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
        self.port.on_tx_complete(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mkc::MkcConfig;
    use pels_fgs::frame::foreman;
    use pels_netsim::disc::{DropTail, QueueLimit};
    use pels_netsim::packet::Feedback;
    use pels_netsim::shard::{Partition, ShardedSimulator};
    use pels_netsim::time::{Rate, SimTime};

    /// ACKs every data packet with the label `label(now)` gives it, if any.
    struct Recorder {
        got: Vec<Packet>,
        label: Box<dyn FnMut(SimTime) -> Option<Feedback> + Send>,
    }
    impl Agent for Recorder {
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            if p.kind == PacketKind::Data {
                let mut ack = Packet::ack_for(&p, 40);
                ack.set_feedback((self.label)(ctx.now));
                ctx.deliver(ack.dst, SimDuration::from_millis(1), ack);
                self.got.push(p);
            }
        }
    }

    fn source_cfg() -> SourceConfig {
        SourceConfig {
            flow: FlowId(1),
            dst: AgentId(1),
            start_at: SimDuration::ZERO,
            stop_at: None,
            trace: Arc::new(VideoTrace::constant(30, 10.0, 1_600, 10_000)),
            cc: CcSpec::default(),
            gamma: GammaConfig::default(),
            packet_bytes: 500,
            mode: SourceMode::Pels,
            arq: false,
            keep_series: true,
        }
    }

    /// A source (agent 0) on a 10 Mb/s link to a [`Recorder`] (agent 1).
    fn sim_with(
        cfg: SourceConfig,
        label: impl FnMut(SimTime) -> Option<Feedback> + Send + 'static,
    ) -> ShardedSimulator {
        let port = Port::new(
            0,
            cfg.dst,
            Rate::from_mbps(10.0),
            SimDuration::from_millis(1),
            Box::new(DropTail::new(QueueLimit::Packets(1000))),
        );
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(PelsSource::new(cfg, port)),
            Box::new(Recorder { got: vec![], label: Box::new(label) }),
        ];
        ShardedSimulator::new(5, &Partition::serial(2), agents)
    }

    /// Every ACK carries the same label `reply_feedback`.
    fn build(
        mode: SourceMode,
        reply_feedback: Option<Feedback>,
    ) -> (ShardedSimulator, AgentId, AgentId) {
        let sim = sim_with(SourceConfig { mode, ..source_cfg() }, move |_| reply_feedback);
        (sim, AgentId(0), AgentId(1))
    }

    /// Every ACK carries a fresh (incrementing) epoch; the loss label flips
    /// from `loss_before` to `loss_after` at `switch_at_s`.
    fn build_with_price(loss_before: f64, loss_after: f64, switch_at_s: f64) -> ShardedSimulator {
        let (mut epoch, switch_at) = (0, SimTime::from_secs_f64(switch_at_s));
        sim_with(source_cfg(), move |now| {
            epoch += 1;
            let loss = if now < switch_at { loss_before } else { loss_after };
            Some(Feedback::new(AgentId(7), epoch, loss, 0.0))
        })
    }

    #[test]
    fn emits_frames_at_frame_rate() {
        let (mut sim, src, dst) = build(SourceMode::Pels, None);
        sim.run_until(SimTime::from_secs_f64(1.05));
        // 10 fps for ~1s: 11 frame emissions (t=0 included).
        assert_eq!(sim.agent::<PelsSource>(src).frames_sent(), 11);
        let got = &sim.agent::<Recorder>(dst).got;
        // Initial rate 128 kb/s == base bitrate: base-only frames.
        let frames: std::collections::HashSet<u64> =
            got.iter().map(|p| p.frame().unwrap().frame).collect();
        assert!(frames.len() >= 10);
        assert!(got.iter().all(|p| p.class == 0), "base-only at 128 kb/s");
    }

    #[test]
    fn frame_tags_are_consistent() {
        let (mut sim, _src, dst) = build(SourceMode::Pels, None);
        sim.run_until(SimTime::from_secs_f64(0.5));
        for p in &sim.agent::<Recorder>(dst).got {
            let tag = p.frame().expect("video packets carry frame tags");
            assert!(tag.index < tag.total);
            assert!(tag.base <= tag.total);
        }
    }

    #[test]
    fn no_feedback_keeps_initial_rate() {
        // Without any feedback labels the control loop never fires: the
        // source keeps streaming at its initial rate.
        let (mut sim, src, _dst) = build(SourceMode::Pels, None);
        sim.run_until(SimTime::from_secs_f64(1.0));
        let s = sim.agent::<PelsSource>(src);
        assert!((s.rate_bps() - 128_000.0).abs() < 1.0, "no feedback, no change");
        assert_eq!(s.rate_series.len(), 0);
    }

    #[test]
    fn stale_epochs_do_not_drive_control() {
        let (mut sim, src, dst) =
            build(SourceMode::Pels, Some(Feedback::new(AgentId(7), 5, -1.0, 0.0)));
        // Stop before the 300 ms stale timeout: this test isolates the
        // epoch filter, not the staleness watchdog.
        sim.run_until(SimTime::from_secs_f64(0.25));
        let s = sim.agent::<PelsSource>(src);
        // Every ACK carries the same epoch 5: exactly one MKC step applies.
        // One step from 128k with p=-1: 128k + 20k + 0.5*128k = 212k.
        assert!((s.rate_bps() - 212_000.0).abs() < 1.0, "rate {}", s.rate_bps());
        assert_eq!(s.rate_series.len(), 1);
        let _ = dst;
    }

    #[test]
    fn watchdog_decays_rate_when_feedback_goes_stale() {
        // One fresh epoch arrives early, then only duplicates: after the
        // stale timeout the watchdog multiplicatively decreases the rate
        // down to the configured floor. The duplicates stay refused through
        // every decay: the simulator's watchdog does not re-anchor the epoch
        // filter (`FlowControl::reanchor` says why).
        let (mut sim, src, _dst) =
            build(SourceMode::Pels, Some(Feedback::new(AgentId(7), 5, -1.0, 0.0)));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let s = sim.agent::<PelsSource>(src);
        let m = s.mkc().expect("default CC is MKC");
        assert!(m.in_stale_fallback(), "stale for ~1.7 s");
        assert!(m.stale_decays() > 5);
        assert!(
            (s.rate_bps() - 64_000.0).abs() < 1.0,
            "decayed to the 64 kb/s floor, got {}",
            s.rate_bps()
        );
    }

    #[test]
    fn thins_base_frames_when_rate_pinned_below_floor() {
        // A constant price p = 0.5 drives MKC toward its 80 kb/s fixed point
        // (r = 0.75·r + 20k), below the 128 kb/s base floor. Observed
        // before the 1 s patience lets the flow starve itself, base thinning
        // must hold the emitted green load to the controlled rate by
        // skipping frames.
        let mut sim = build_with_price(0.5, 0.5, f64::MAX);
        sim.run_until(SimTime::from_secs_f64(0.95));
        let s = sim.agent::<PelsSource>(AgentId(0));
        assert!(s.rate_bps() < 100_000.0, "rate {}", s.rate_bps());
        assert!(!s.is_starved(), "still inside the patience");
        // 10 frame slots; the byte budget (below 128 kb/s after the first
        // frame) passes about two in three.
        let emitted = s.frames_sent() - s.skipped_base_frames;
        assert!(s.skipped_base_frames >= 2, "skipped {}", s.skipped_base_frames);
        assert!((5..9).contains(&emitted), "emitted {emitted}");
    }

    #[test]
    fn starves_after_patience_and_resumes_on_negative_price() {
        // Price 0.5 caps sustainable goodput at half the (80 kb/s) rate —
        // far below the base floor — so after the 1 s patience the flow
        // must starve itself and switch to probing. When the price turns
        // negative (spare capacity) at t = 3 s, the probes see it and the
        // flow must resume.
        let mut sim = build_with_price(0.5, -0.5, 3.0);
        sim.run_until(SimTime::from_secs_f64(2.5));
        {
            let s = sim.agent::<PelsSource>(AgentId(0));
            assert!(s.is_starved(), "sustainable < floor for > patience");
            assert_eq!(s.starve_events, 1);
            assert!(s.probes_sent > 0, "starved flows probe the path");
            assert!(s.starved_frames > 0);
            assert!(s.frames_sent() > 20, "frame clock keeps running while starved");
        }
        sim.run_until(SimTime::from_secs_f64(12.0));
        let s = sim.agent::<PelsSource>(AgentId(0));
        assert!(!s.is_starved(), "negative price resumes the flow");
        assert!(s.rate_bps() > 128_000.0, "rate recovered past the floor");
        let got = &sim.agent::<Recorder>(AgentId(1)).got;
        let resumed_video = got
            .iter()
            .filter(|p| p.frame().unwrap().frame != PROBE_FRAME)
            .any(|p| p.sent_at > SimTime::from_secs_f64(8.0));
        assert!(resumed_video, "video flows again after resume");
    }

    #[test]
    fn degradation_stands_down_under_stale_feedback() {
        // One fresh epoch, then silence: the watchdog decays the rate to
        // the 64 kb/s floor, but a stale p̂ must neither thin nor starve —
        // blanking video on information-free feedback is self-harm.
        // (A frame or two may thin in the short fresh window before the
        // stale timeout; what matters is that nothing thins after it.)
        let (mut sim, src, _dst) =
            build(SourceMode::Pels, Some(Feedback::new(AgentId(7), 5, 0.5, 0.0)));
        sim.run_until(SimTime::from_secs_f64(1.0));
        let skipped_while_fresh = sim.agent::<PelsSource>(src).skipped_base_frames;
        sim.run_until(SimTime::from_secs_f64(4.0));
        let s = sim.agent::<PelsSource>(src);
        assert!(s.mkc().expect("default CC is MKC").in_stale_fallback());
        assert!(s.rate_bps() < 128_000.0, "decayed below the floor");
        assert_eq!(s.skipped_base_frames, skipped_while_fresh, "no thinning once stale");
        assert!(!s.is_starved(), "no starvation under stale feedback");
        assert_eq!(s.frames_sent(), 41, "the frame clock keeps running");
    }

    #[test]
    fn best_effort_mode_sends_no_red_and_keeps_gamma_idle() {
        let (mut sim, src, dst) =
            build(SourceMode::BestEffort, Some(Feedback::new(AgentId(7), 1, -1.0, 0.2)));
        sim.run_until(SimTime::from_secs_f64(2.0));
        let s = sim.agent::<PelsSource>(src);
        assert_eq!(s.sent_by_color[2], 0, "best-effort sends no red");
        // Gamma was never updated in BestEffort mode.
        assert!((s.gamma() - 0.5).abs() < 1e-12);
        let got = &sim.agent::<Recorder>(dst).got;
        assert!(got.iter().all(|p| p.class <= 1));
    }

    #[test]
    fn pacing_spreads_packets_within_the_interval() {
        let (mut sim, _src, dst) = build(SourceMode::Pels, None);
        sim.run_until(SimTime::from_secs_f64(0.35));
        let got = &sim.agent::<Recorder>(dst).got;
        // Packets of frame 1 (t in [0.1, 0.2)) are spaced, not a burst.
        let f1: Vec<f64> = got
            .iter()
            .filter(|p| p.frame().unwrap().frame == 1)
            .map(|p| p.sent_at.as_secs_f64())
            .collect();
        assert!(f1.len() >= 3);
        let gaps: Vec<f64> = f1.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g > 0.005), "gaps {gaps:?}");
    }

    #[test]
    fn paper_trace_base_is_21_green_packets() {
        // With the paper-literal Foreman trace, a base-only frame is 21
        // green packets of 500 bytes.
        let cfg = SourceConfig {
            trace: Arc::new(foreman::trace()),
            cc: CcSpec::Mkc(MkcConfig {
                initial: Rate::from_kbps(840.0), // exactly the base bitrate
                ..Default::default()
            }),
            ..source_cfg()
        };
        let mut sim = sim_with(cfg, |_| None);
        sim.run_until(SimTime::from_secs_f64(0.55));
        let got = &sim.agent::<Recorder>(AgentId(1)).got;
        let frame0: Vec<_> = got.iter().filter(|p| p.frame().unwrap().frame == 0).collect();
        assert_eq!(frame0.len(), 21);
        assert!(frame0.iter().all(|p| p.class == 0 && p.size_bytes == 500));
    }
}
