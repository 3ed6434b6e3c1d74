//! The sender control core: one machine for both stacks.
//!
//! Each *fresh* feedback epoch (Section 5.2) drives one congestion-control
//! step from the echoed rate (Eq. 8) and one γ step (Eq. 4); each frame is
//! scaled to the controlled rate, split by γ and packetized (Section 4.2).
//! [`FlowControl`] is that machine and nothing else: it has no timers, no
//! socket and no simulator context, only a clock value passed into calls.
//! The simulator's [`PelsSource`](crate::source::PelsSource) and the wire
//! server's `ServeFlow` are adapters that decide *when* to call it and how
//! a planned packet becomes bytes on a link.

use crate::aimd::AimdController;
use crate::color::Color;
use crate::feedback::EpochFilter;
use crate::gamma::{GammaConfig, GammaController};
use crate::mkc::{MkcConfig, MkcController};
use crate::tfrc::TfrcController;
use pels_fgs::frame::VideoTrace;
use pels_fgs::packetize::FramePackets;
use pels_fgs::scaling::{partition_enhancement, scale_to_rate};
use pels_netsim::packet::{Feedback, FrameTag};
use pels_netsim::time::SimTime;

/// How the source marks its enhancement packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum SourceMode {
    /// PELS: yellow/red partition driven by the γ controller.
    Pels,
    /// Best-effort comparator: the whole enhancement layer is one class
    /// (yellow); γ is irrelevant.
    BestEffort,
}

/// Which congestion controller a source runs. PELS itself is independent
/// of the choice (paper Section 5) — AIMD is provided for the ablation
/// demonstrating exactly that.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CcSpec {
    /// Max-min Kelly Control (the paper's choice).
    Mkc(MkcConfig),
    /// Additive increase, multiplicative decrease.
    Aimd,
    /// TFRC-style equation-based control.
    Tfrc,
}

impl Default for CcSpec {
    fn default() -> Self {
        CcSpec::Mkc(MkcConfig::default())
    }
}

#[derive(Debug)]
enum Cc {
    Mkc(MkcController),
    Aimd(AimdController),
    Tfrc(TfrcController),
}

impl Cc {
    fn new(spec: CcSpec) -> Self {
        match spec {
            CcSpec::Mkc(cfg) => Cc::Mkc(MkcController::new(cfg)),
            CcSpec::Aimd => Cc::Aimd(AimdController::default()),
            CcSpec::Tfrc => Cc::Tfrc(TfrcController::default()),
        }
    }

    fn rate_bps(&self) -> f64 {
        match self {
            Cc::Mkc(m) => m.rate_bps(),
            Cc::Aimd(a) => a.rate_bps(),
            Cc::Tfrc(t) => t.rate_bps(),
        }
    }

    fn update_from(&mut self, base_bps: f64, p: f64) -> f64 {
        match self {
            Cc::Mkc(m) => m.update_from(base_bps, p),
            Cc::Aimd(a) => a.update(p),
            Cc::Tfrc(t) => t.update(p),
        }
    }
}

/// Shed the red class when the controlled rate drops below this multiple of
/// the current frame's base bitrate: close to the base floor, spending the
/// scarce budget on droppable red packets only competes with the base layer
/// on a degraded path.
pub const RED_SHED_HEADROOM: f64 = 1.1;
/// Within 5% of the base floor every enhancement byte is shed; only the
/// base layer flows until the rate recovers.
pub const YELLOW_SHED_HEADROOM: f64 = 1.05;

/// One planned-but-unsent packet. The adapter turns it into a simulator
/// `Packet` or a `WireData` when the pacer releases it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planned {
    /// Payload bytes.
    pub bytes: u32,
    /// Color class (0 green, 1 yellow, 2 red).
    pub class: u8,
    /// Position within its frame.
    pub tag: FrameTag,
    /// `Some(t)` marks a retransmission of a packet whose frame was emitted
    /// at `t`: it keeps `t` as its send time, so the receiver's delay
    /// accounting sees the full recovery latency.
    pub repair_of: Option<SimTime>,
}

/// The per-flow sender machine shared by the simulator and the wire server.
///
/// The frame being sent is held as what the paper sends it as — base,
/// yellow and red byte counts (Section 4, Eq. 4) — plus a cursor, and each
/// [`Planned`] packet is computed as the pacer asks for it: a flow's queue
/// costs the same at 1 packet per frame as at 126.
#[derive(Debug)]
pub struct FlowControl {
    cc: Cc,
    gamma: GammaController,
    filter: EpochFilter,
    mode: SourceMode,
    frame_idx: u64,
    /// The latest planned frame (number `frame_idx − 1`).
    frame: FramePackets,
    /// Its packet count and base-layer packet count: the tag's `total` and
    /// `base`.
    total: u16,
    base: u16,
    /// Its next packet to send; `total` once every one is sent or abandoned.
    cursor: u16,
    /// Retransmissions queued ahead of the frame: a stack, since each one
    /// goes ahead of everything queued, so the last pushed is sent first.
    repairs: Vec<Planned>,
    shed_red_frames: u64,
    shed_yellow_frames: u64,
}

impl FlowControl {
    /// Creates the machine at the controller's initial rate and γ.
    pub fn new(cc: CcSpec, gamma: GammaConfig, mode: SourceMode) -> Self {
        FlowControl {
            cc: Cc::new(cc),
            gamma: GammaController::new(gamma),
            filter: EpochFilter::new(),
            mode,
            frame_idx: 0,
            frame: FramePackets::default(),
            total: 0,
            base: 0,
            cursor: 0,
            repairs: Vec::new(),
            shed_red_frames: 0,
            shed_yellow_frames: 0,
        }
    }

    /// Applies one feedback label: if its epoch is fresh, one
    /// congestion-control step from `rate_echo_bps` — Eq. 8's base
    /// `r(k − D)`, the rate in effect when the acknowledged packet left —
    /// and, in [`SourceMode::Pels`], one γ step (Eq. 4). Returns whether
    /// the label was fresh.
    pub fn on_feedback(&mut self, now: SimTime, rate_echo_bps: f64, fb: &Feedback) -> bool {
        if !self.filter.accept(fb) {
            return false;
        }
        self.cc.update_from(rate_echo_bps, fb.loss);
        if let Cc::Mkc(m) = &mut self.cc {
            m.record_fresh(now);
        }
        if self.mode == SourceMode::Pels {
            self.gamma.update(fb.fgs_loss);
        }
        true
    }

    /// Stale-feedback watchdog (MKC only): if no epoch has been fresh for
    /// the stale timeout, applies one multiplicative decrease and returns
    /// `true`.
    pub fn on_stale_check(&mut self, now: SimTime) -> bool {
        match &mut self.cc {
            Cc::Mkc(m) => m.apply_staleness(now),
            _ => false,
        }
    }

    /// Forgets the epoch horizon, so the next label is accepted whatever
    /// its epoch. For a sender whose watchdog has fired and whose labels
    /// cannot be old: a full timeout without fresh feedback then means the
    /// horizon itself is wrong (a corrupted label that jumped it forward, a
    /// router that restarted its counter). The wire server qualifies — its
    /// router stamps labels at departure. The simulator does not: its
    /// routers stamp at arrival, a red packet can then sit out seconds of
    /// backlog, and a re-anchored filter takes its label (and the rate echo
    /// beside it) for fresh. Measured with the simulator re-anchoring too:
    /// 39 labels up to 3 s old accepted by 32 flows on the fixed dumbbell,
    /// `tests/scaling.rs`'s admitted set no longer settles by 15 s.
    pub fn reanchor(&mut self) {
        self.filter.reset();
    }

    /// Drops every queued packet (a missed frame interval, a flow that
    /// stops) and returns how many there were.
    pub fn abandon(&mut self) -> u64 {
        let n = self.queued_len() as u64;
        self.repairs.clear();
        self.cursor = self.total;
        n
    }

    /// Plans the next frame of `trace` and queues its packets — the one
    /// place Eq. 4's γ meets the packetizer: scale the frame to the
    /// controlled rate, split its enhancement into yellow and red by γ,
    /// shed near the base floor, packetize, tag. Unsent packets of the
    /// previous interval have missed their deadline and are dropped rather
    /// than left to snowball; their count is returned. A frame that plans to
    /// nothing (an unvalidated trace with an empty base layer) queues
    /// nothing.
    ///
    /// Layer shedding: when the rate collapses toward the base-layer floor
    /// (link failure, stale-feedback decay), the red class goes first and
    /// then all enhancement, so the base layer keeps flowing through the
    /// degraded path. It restores by itself once the rate recovers.
    pub fn plan_next(&mut self, trace: &VideoTrace, packet_bytes: u32) -> u64 {
        let abandoned = self.abandon();
        let (spec, rate_bps) = (trace.frame(self.frame_idx), self.cc.rate_bps());
        let gamma = match self.mode {
            SourceMode::Pels => self.gamma.gamma(),
            SourceMode::BestEffort => 0.0,
        };
        let mut scaled = scale_to_rate(spec, rate_bps, trace.fps);
        let (mut yellow, mut red) = partition_enhancement(scaled.enhancement_bytes, gamma);
        let base_floor_bps = f64::from(spec.base_bytes) * 8.0 * trace.fps;
        if rate_bps < YELLOW_SHED_HEADROOM * base_floor_bps {
            self.shed_yellow_frames += u64::from(yellow > 0 || red > 0);
            (yellow, red) = (0, 0);
        } else if rate_bps < RED_SHED_HEADROOM * base_floor_bps {
            self.shed_red_frames += u64::from(red > 0);
            red = 0;
        }
        scaled.enhancement_bytes = yellow + red;
        self.frame = FramePackets::new(&scaled, yellow, red, packet_bytes);
        // `VideoTrace::validate` bounds both counts by `u16::MAX`.
        (self.total, self.base, self.cursor) = (self.frame.len(), self.frame.base_count(), 0);
        self.frame_idx += 1;
        abandoned
    }

    /// Packet `index` of the latest planned frame, tagged.
    fn planned(&self, index: u16) -> Planned {
        let pp = self.frame.get(index).expect("the cursor stays below the packet count");
        Planned {
            bytes: pp.bytes,
            class: Color::from(pp.segment).class(),
            tag: FrameTag { frame: self.frame_idx - 1, index, total: self.total, base: self.base },
            repair_of: None,
        }
    }

    /// Advances the frame clock without planning anything (base thinning,
    /// starvation), so frame numbers stay aligned with time. Returns the
    /// previous interval's leftovers, dropped as in [`Self::plan_next`].
    pub fn skip_frame(&mut self) -> u64 {
        self.frame_idx += 1;
        self.abandon()
    }

    /// The packet the pacer sends next.
    pub fn head(&self) -> Option<Planned> {
        match self.repairs.last() {
            Some(&p) => Some(p),
            None => (self.cursor < self.total).then(|| self.planned(self.cursor)),
        }
    }

    /// Takes the packet the pacer sends next.
    pub fn pop(&mut self) -> Option<Planned> {
        let p = self.head()?;
        if self.repairs.pop().is_none() {
            self.cursor += 1;
        }
        Some(p)
    }

    /// Queues `p` ahead of everything planned (a retransmission).
    pub fn push_front(&mut self, p: Planned) {
        self.repairs.push(p);
    }

    /// How many packets are queued.
    pub fn queued_len(&self) -> usize {
        self.repairs.len() + usize::from(self.total - self.cursor)
    }

    /// The packets of the latest planned frame, sent or not: what a
    /// retransmission of one of them is cut from.
    pub fn planned_frame(&self) -> FramePackets {
        self.frame
    }

    /// The congestion-controlled sending rate, bits/s.
    pub fn rate_bps(&self) -> f64 {
        self.cc.rate_bps()
    }

    /// The partition fraction γ.
    pub fn gamma(&self) -> f64 {
        self.gamma.gamma()
    }

    /// The MKC controller, when this flow runs MKC (staleness state, gains).
    pub fn mkc(&self) -> Option<&MkcController> {
        match &self.cc {
            Cc::Mkc(m) => Some(m),
            _ => None,
        }
    }

    /// Frames planned or skipped so far: the index of the next frame.
    pub fn frames_planned(&self) -> u64 {
        self.frame_idx
    }

    /// Frames whose red enhancement was shed because the rate collapsed
    /// toward the base-layer floor.
    pub fn shed_red_frames(&self) -> u64 {
        self.shed_red_frames
    }

    /// Frames whose entire enhancement (yellow and red) was shed because
    /// the rate fell below the base-layer floor.
    pub fn shed_yellow_frames(&self) -> u64 {
        self.shed_yellow_frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_netsim::packet::AgentId;
    use pels_netsim::time::{Rate, SimDuration};

    fn flow_at(kbps: f64) -> FlowControl {
        let mkc = MkcConfig { initial: Rate::from_kbps(kbps), ..Default::default() };
        FlowControl::new(CcSpec::Mkc(mkc), GammaConfig::default(), SourceMode::Pels)
    }

    fn label(epoch: u64) -> Feedback {
        Feedback::new(AgentId(7), epoch, -1.0, 0.3)
    }

    #[test]
    fn one_fresh_epoch_is_one_step_of_each_law() {
        let mut f = flow_at(128.0);
        assert!(f.on_feedback(SimTime::ZERO, 128_000.0, &label(1)));
        // Eq. 8 from the echoed 128 kb/s with p = −1: 128k + 20k + 0.5·128k,
        // and γ moved toward p_fgs / p_thr = 0.4.
        assert!((f.rate_bps() - 212_000.0).abs() < 1.0, "{}", f.rate_bps());
        let gamma = f.gamma();
        assert!(gamma < 0.5);
        assert!(!f.on_feedback(SimTime::ZERO, 128_000.0, &label(1)), "replayed epoch");
        assert_eq!((f.rate_bps(), f.gamma()), (212_000.0, gamma));
        // The step starts from the echo, not from the current rate.
        assert!(f.on_feedback(SimTime::ZERO, 100_000.0, &label(2)));
        assert!((f.rate_bps() - 170_000.0).abs() < 1.0, "{}", f.rate_bps());
    }

    #[test]
    fn reanchoring_after_a_stale_decay_recovers_a_poisoned_epoch_horizon() {
        // On the wire a corrupted-but-decodable label is one bit flip away.
        // No simulator fault can corrupt a label (faults drop, delay or
        // flush packets, they never rewrite one), so the simulator, which
        // must not re-anchor (see `reanchor`), has no reachable bug here.
        let ms = |t: u64| SimTime::ZERO + SimDuration::from_millis(t);
        let mut f = flow_at(128.0);
        assert!(f.on_feedback(ms(0), f.rate_bps(), &label(u64::MAX)));
        let poisoned = f.rate_bps();
        assert!(!f.on_feedback(ms(1), poisoned, &label(2)), "genuine epochs look stale");
        assert!(!f.on_stale_check(ms(300)), "not stale until past the 300 ms timeout");
        assert!(f.on_stale_check(ms(301)));
        let decayed = f.rate_bps();
        assert!(decayed < poisoned);
        assert!(f.mkc().unwrap().in_stale_fallback());
        assert!(!f.on_feedback(ms(301), decayed, &label(3)), "a decay alone keeps the horizon");
        f.reanchor();
        assert!(f.on_feedback(ms(302), decayed, &label(4)), "re-anchored");
        assert!(f.rate_bps() > decayed);
        assert!(!f.mkc().unwrap().in_stale_fallback());
        assert!(!f.on_feedback(ms(303), decayed, &label(4)), "and filtering again");
    }

    #[test]
    fn only_mkc_has_a_stale_watchdog() {
        let mut f = FlowControl::new(CcSpec::Aimd, GammaConfig::default(), SourceMode::Pels);
        f.on_feedback(SimTime::ZERO, 0.0, &label(1));
        assert!(!f.on_stale_check(SimTime::from_secs_f64(10.0)));
        assert!(f.mkc().is_none());
    }

    /// Pops until the queue is empty.
    fn drain(f: &mut FlowControl) -> Vec<Planned> {
        std::iter::from_fn(|| f.pop()).collect()
    }

    #[test]
    fn plan_next_tags_the_frame_and_abandons_the_last_one() {
        let trace = VideoTrace::constant(3, 10.0, 1_600, 10_000);
        let mut f = flow_at(256.0);
        assert_eq!(f.plan_next(&trace, 500), 0);
        assert_eq!(f.queued_len(), 8);
        // 256 kb/s at 10 fps: 3200 B = 1600 base (3 × 500 + 100) + 800
        // yellow + 800 red at γ = 0.5.
        let plan = drain(&mut f);
        assert_eq!(plan.iter().map(|p| p.bytes).sum::<u32>(), 3_200);
        assert_eq!(plan.iter().map(|p| p.class).collect::<Vec<_>>(), [0, 0, 0, 0, 1, 1, 2, 2]);
        for (i, p) in plan.iter().enumerate() {
            assert_eq!(p.tag, FrameTag { frame: 0, index: i as u16, total: 8, base: 4 });
            assert_eq!(p.repair_of, None);
        }
        assert_eq!(f.planned_frame().get(7).map(|p| p.bytes), Some(plan[7].bytes));
        let repair = Planned { repair_of: Some(SimTime::ZERO), ..plan[0] };
        f.push_front(repair);
        assert_eq!((f.head(), f.queued_len()), (Some(repair), 1));
        assert_eq!(f.plan_next(&trace, 500), 1, "the unsent repair is abandoned");
        assert_eq!(f.pop().map(|p| p.tag.frame), Some(1));
        f.push_front(repair);
        assert_eq!(f.pop(), Some(repair), "a repair goes ahead of the frame");
        assert_eq!(f.head().map(|p| p.tag.index), Some(1));
        assert_eq!(f.plan_next(&trace, 500), 7, "the unsent interval is abandoned");
        assert_eq!(f.queued_len(), 8);
        assert_eq!(f.skip_frame(), 8);
        assert_eq!((f.frames_planned(), f.queued_len()), (4, 0));
        assert_eq!((f.head(), f.pop()), (None, None));
    }

    #[test]
    fn sheds_red_then_all_enhancement_near_the_base_floor() {
        // Base bitrate 128 kb/s: 135 kb/s is inside the red-shed band
        // (< 1.1×), 130 kb/s inside the yellow-shed band (< 1.05×).
        let trace = VideoTrace::constant(3, 10.0, 1_600, 10_000);
        for (kbps, red, yellow) in [(135.0, 1, 0), (130.0, 0, 1), (150.0, 0, 0)] {
            let mut f = flow_at(kbps);
            f.plan_next(&trace, 500);
            assert_eq!((f.shed_red_frames(), f.shed_yellow_frames()), (red, yellow), "{kbps}");
            let plan = drain(&mut f);
            assert_eq!(plan.iter().any(|p| p.class == 2), red + yellow == 0, "{kbps}");
            assert_eq!(plan.iter().any(|p| p.class == 1), yellow == 0, "yellow flows at {kbps}");
        }
    }

    #[test]
    fn an_empty_plan_queues_nothing() {
        let empty = VideoTrace::constant(1, 10.0, 0, 0);
        let mut f = flow_at(128.0);
        assert_eq!(f.plan_next(&empty, 500), 0);
        assert_eq!((f.queued_len(), f.frames_planned(), f.head()), (0, 1, None));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use pels_netsim::time::Rate;
    use proptest::prelude::*;

    /// The frame as a list, cut one packet at a time — what `plan_next`
    /// queued before it kept a frame as byte counts. Kept as the oracle.
    fn eager_plan(frame: u64, segments: [u32; 3], packet_bytes: u32) -> Vec<Planned> {
        let mut out = Vec::new();
        for (class, mut remaining) in (0u8..).zip(segments) {
            while remaining > 0 {
                let bytes = remaining.min(packet_bytes);
                let tag = FrameTag { frame, index: out.len() as u16, total: 0, base: 0 };
                out.push(Planned { bytes, class, tag, repair_of: None });
                remaining -= bytes;
            }
        }
        let (total, base) = (out.len() as u16, segments[0].div_ceil(packet_bytes) as u16);
        out.iter_mut().for_each(|p| (p.tag.total, p.tag.base) = (total, base));
        out
    }

    proptest! {
        /// `plan_next` then pop-until-empty yields what the eager packetizer
        /// cuts from the same rate, γ and shedding rule — across frames, and
        /// with an interval stopped part-way, whose rest is abandoned.
        #[test]
        fn popping_a_planned_frame_matches_the_eager_packetizer(
            frames in proptest::collection::vec((0u32..12_000, 0u32..60_000), 1..6),
            kbps in 1.0f64..4_000.0,
            packet_bytes in 100u32..1_500,
            best_effort in any::<bool>(),
            sent in proptest::collection::vec(0usize..1_000, 6),
        ) {
            let specs = frames.iter().enumerate().map(|(i, &(base_bytes, enhancement_bytes))| {
                pels_fgs::frame::FrameSpec { index: i as u64, base_bytes, enhancement_bytes }
            });
            let trace = VideoTrace::new(10.0, specs.collect());
            let mode = if best_effort { SourceMode::BestEffort } else { SourceMode::Pels };
            let mkc = MkcConfig { initial: Rate::from_kbps(kbps), ..Default::default() };
            let mut f = FlowControl::new(CcSpec::Mkc(mkc), GammaConfig::default(), mode);
            let mut left = 0;
            for (frame, &sent) in (0u64..frames.len() as u64).zip(&sent) {
                let spec = trace.frame(frame);
                let rate = f.rate_bps();
                let gamma = if best_effort { 0.0 } else { f.gamma() };
                let x = scale_to_rate(spec, rate, trace.fps).enhancement_bytes;
                let (mut yellow, mut red) = partition_enhancement(x, gamma);
                let floor = f64::from(spec.base_bytes) * 8.0 * trace.fps;
                if rate < YELLOW_SHED_HEADROOM * floor {
                    (yellow, red) = (0, 0);
                } else if rate < RED_SHED_HEADROOM * floor {
                    red = 0;
                }
                let expected = eager_plan(frame, [spec.base_bytes, yellow, red], packet_bytes);
                prop_assert_eq!(f.plan_next(&trace, packet_bytes), left);
                prop_assert_eq!(f.queued_len(), expected.len());
                let popped: Vec<Planned> =
                    std::iter::from_fn(|| f.pop()).take(sent.min(expected.len())).collect();
                prop_assert_eq!(&popped[..], &expected[..popped.len()]);
                prop_assert_eq!(f.head().as_ref(), expected.get(popped.len()));
                left = (expected.len() - popped.len()) as u64;
            }
        }
    }
}
