//! The PELS AQM router (paper Section 4.1, Fig. 4 left) and its best-effort
//! comparator (Section 6.5).
//!
//! Port 0 is the bottleneck. In [`QueueMode::Pels`] its discipline is
//! `WRR{ StrictPriority[green, yellow, red], DropTail }` — weighted
//! round-robin between the PELS queue and the Internet queue, strict
//! priority among the color sub-queues. In [`QueueMode::BestEffortUniform`]
//! the video child is a plain FIFO and the router instead drops arriving
//! *enhancement* packets uniformly at random at the measured overload rate —
//! the paper's "generic best-effort" construction with a protected base
//! layer, which realizes the Bernoulli loss model of Section 3.
//!
//! Either way the router runs the feedback algorithm of Eq. 11 on a `T`
//! timer and stamps the label `(router ID, z, p)` into every passing PELS
//! data packet with the max-loss override rule, so MKC congestion control
//! works identically in both modes.

use crate::color::Color;
use crate::feedback::{FeedbackEstimator, FEEDBACK_INTERVAL};
use crate::tcm::{SrTcm, TcmConfig};
use crate::SimError;
use pels_netsim::disc::{Discipline, DropTail, QEntry, QueueLimit, StrictPriority, Wrr};
use pels_netsim::error::invalid_config;
use pels_netsim::faults::{apply_port_fault, FaultAction};
use pels_netsim::packet::{AgentId, Packet, PacketKind};
use pels_netsim::port::Port;
use pels_netsim::router::RouteTable;
use pels_netsim::sim::{Agent, Context};
use pels_netsim::stats::TimeSeries;
use pels_netsim::time::SimDuration;
use rand::Rng;
use std::any::Any;

/// How the bottleneck treats video traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum QueueMode {
    /// PELS priority queuing (green/yellow/red strict priority).
    Pels,
    /// Uniform random enhancement-layer drops into a FIFO (the comparator).
    BestEffortUniform,
    /// A plain drop-tail FIFO with no protection at all (ablation baseline:
    /// bursty tail drops hit every layer, including green).
    Fifo,
}

/// Configuration of an [`AqmRouter`]'s bottleneck behaviour.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AqmConfig {
    /// Queueing mode of the video share.
    pub mode: QueueMode,
    /// Fraction of the bottleneck allocated to the PELS queue by WRR
    /// (paper Section 6.1: 50%).
    pub pels_share: f64,
    /// Feedback measurement interval `T` (paper: 30 ms).
    pub feedback_interval: SimDuration,
    /// Per-color queue limits in packets (green, yellow, red).
    pub color_limits: [usize; 3],
    /// Internet (FIFO) queue limit in packets.
    pub internet_limit: usize,
    /// Video FIFO limit in best-effort mode, packets.
    pub best_effort_limit: usize,
    /// Optional DiffServ-style ingress re-marking: video data packets are
    /// re-colored by a single-rate three-color marker *before* queueing,
    /// overriding the application's colors (the Section 2.1 comparison).
    pub ingress_tcm: Option<TcmConfig>,
}

impl Default for AqmConfig {
    fn default() -> Self {
        AqmConfig {
            mode: QueueMode::Pels,
            pels_share: 0.5,
            feedback_interval: FEEDBACK_INTERVAL,
            color_limits: [200, 200, 50],
            internet_limit: 50,
            best_effort_limit: 100,
            ingress_tcm: None,
        }
    }
}

const TICK_TOKEN: u64 = 0;

/// How many feedback ticks aggregate into one sample of the measured
/// per-color loss series: ~1 s of 30 ms windows, which smooths them.
const LOSS_WINDOW_TICKS: u32 = 33;

fn wrr_classify(e: &QEntry) -> usize {
    if Color::is_pels_class(e.class) {
        0
    } else {
        1
    }
}

/// The AQM bottleneck router agent.
#[derive(Debug)]
pub struct AqmRouter {
    ports: Vec<Port>,
    routes: RouteTable,
    cfg: AqmConfig,
    estimator: FeedbackEstimator,
    self_id: AgentId,
    /// Packets dropped for lack of a route.
    pub no_route_drops: u64,
    /// Uniform random drops performed in best-effort mode.
    pub random_drops: u64,
    /// Per-class arrivals at the bottleneck over the current red-loss window.
    window_arrivals: [u64; 4],
    /// Per-class drops at the bottleneck over the current red-loss window.
    window_drops: [u64; 4],
    ticks_in_window: u32,
    /// Signed total feedback `p(k)` per tick: `(t, p)`.
    pub feedback_series: TimeSeries,
    /// Enhancement-layer loss per tick: `(t, p_fgs)`.
    pub fgs_loss_series: TimeSeries,
    /// Measured red packet loss (drops/arrivals) per aggregation window.
    pub red_loss_series: TimeSeries,
    /// Measured yellow packet loss per aggregation window.
    pub yellow_loss_series: TimeSeries,
    /// Measured green packet loss per aggregation window.
    pub green_loss_series: TimeSeries,
    /// The ingress marker, when configured.
    tcm: Option<SrTcm>,
    /// Bottleneck video-queue backlog in packets, sampled each feedback
    /// tick: total and per color (PELS mode only; zeros otherwise).
    pub backlog_series: TimeSeries,
    /// Red-band backlog in packets per feedback tick.
    pub red_backlog_series: TimeSeries,
    keep_series: bool,
}

impl AqmRouter {
    /// Creates the router.
    ///
    /// `bottleneck_port` becomes port 0 and must have been created with a
    /// *placeholder* discipline — it is replaced according to `cfg`.
    /// `reverse_ports` (indices 1..) carry traffic towards sources/other
    /// routers and keep their own disciplines.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `pels_share` is outside `(0, 1)` or
    /// port indices are wrong.
    pub fn try_new(
        mut bottleneck_port: Port,
        reverse_ports: Vec<Port>,
        routes: RouteTable,
        cfg: AqmConfig,
        keep_series: bool,
    ) -> Result<Self, SimError> {
        if !(cfg.pels_share > 0.0 && cfg.pels_share < 1.0) {
            return Err(invalid_config(format!("pels_share must be in (0,1): {}", cfg.pels_share)));
        }
        if bottleneck_port.index != 0 {
            return Err(invalid_config("bottleneck must be port 0"));
        }
        if cfg.feedback_interval.is_zero() {
            return Err(invalid_config("feedback_interval must be positive"));
        }
        bottleneck_port.set_discipline(Self::build_discipline(&cfg));
        let pels_capacity = bottleneck_port.rate.scale(cfg.pels_share);
        let mut ports = reverse_ports;
        ports.insert(0, bottleneck_port);
        if ports.iter().enumerate().any(|(i, p)| p.index != i) {
            return Err(invalid_config("reverse port indices must follow the bottleneck"));
        }
        Ok(AqmRouter {
            ports,
            routes,
            cfg,
            estimator: FeedbackEstimator::try_new(pels_capacity, cfg.feedback_interval)?,
            self_id: AgentId(u32::MAX),
            no_route_drops: 0,
            random_drops: 0,
            window_arrivals: [0; 4],
            window_drops: [0; 4],
            ticks_in_window: 0,
            feedback_series: TimeSeries::new("p"),
            fgs_loss_series: TimeSeries::new("p_fgs"),
            red_loss_series: TimeSeries::new("p_red"),
            yellow_loss_series: TimeSeries::new("p_yellow"),
            green_loss_series: TimeSeries::new("p_green"),
            tcm: cfg.ingress_tcm.map(|TcmConfig {}| SrTcm::default()),
            backlog_series: TimeSeries::new("video_backlog_pkts"),
            red_backlog_series: TimeSeries::new("red_backlog_pkts"),
            keep_series,
        })
    }

    fn build_discipline(cfg: &AqmConfig) -> Box<dyn Discipline> {
        let video: Box<dyn Discipline> = match cfg.mode {
            QueueMode::Pels => Box::new(StrictPriority::new(vec![
                Box::new(DropTail::new(QueueLimit::Packets(cfg.color_limits[0]))),
                Box::new(DropTail::new(QueueLimit::Packets(cfg.color_limits[1]))),
                Box::new(DropTail::new(QueueLimit::Packets(cfg.color_limits[2]))),
            ])),
            QueueMode::BestEffortUniform | QueueMode::Fifo => {
                Box::new(DropTail::new(QueueLimit::Packets(cfg.best_effort_limit)))
            }
        };
        let internet = Box::new(DropTail::new(QueueLimit::Packets(cfg.internet_limit)));
        // Express the share as integer WRR weights with 1% resolution.
        let w_video = (cfg.pels_share * 100.0).round().clamp(1.0, 99.0) as u32;
        let w_inet = 100 - w_video;
        Box::new(Wrr::new(vec![(w_video, video), (w_inet, internet)], wrr_classify, 500))
    }

    /// Access a port (0 = bottleneck).
    pub fn port(&self, i: usize) -> &Port {
        &self.ports[i]
    }

    /// The feedback estimator (for inspection).
    pub fn estimator(&self) -> &FeedbackEstimator {
        &self.estimator
    }

    /// The router's configuration.
    pub fn config(&self) -> &AqmConfig {
        &self.cfg
    }

    /// Returns `true` when the packet was consumed by a uniform random drop.
    fn record_bottleneck(&mut self, pkt: &mut Packet, ctx: &mut Context<'_>) -> bool {
        // Only PELS data packets feed the estimator and carry feedback.
        if pkt.kind != PacketKind::Data || !Color::is_pels_class(pkt.class) {
            return false;
        }
        // DiffServ-style ingress re-marking happens before anything else:
        // the marker sees only sizes and arrival times.
        if let Some(tcm) = &mut self.tcm {
            pkt.class = tcm.mark(pkt.size_bytes, ctx.now).class();
        }
        self.estimator.on_arrival(pkt.size_bytes, pkt.class);
        pkt.stamp_feedback(self.estimator.label(self.self_id));
        self.window_arrivals[pkt.class.min(3) as usize] += 1;
        // Best-effort mode: uniform random early drop of enhancement
        // packets at the measured overload rate; green is protected
        // ("magically", per Section 6.5).
        if self.cfg.mode == QueueMode::BestEffortUniform
            && pkt.class != Color::Green.class()
            && self.estimator.fgs_loss() > 0.0
            && ctx.rng().gen::<f64>() < self.estimator.fgs_loss()
        {
            self.random_drops += 1;
            self.window_drops[pkt.class.min(3) as usize] += 1;
            return true;
        }
        false
    }

    fn push_loss_window(&mut self, now_s: f64) {
        let series =
            [&mut self.green_loss_series, &mut self.yellow_loss_series, &mut self.red_loss_series];
        for (class, s) in series.into_iter().enumerate() {
            let a = self.window_arrivals[class];
            if a > 0 {
                s.push(now_s, self.window_drops[class] as f64 / a as f64);
            }
        }
        self.window_arrivals = [0; 4];
        self.window_drops = [0; 4];
    }
}

impl Agent for AqmRouter {
    fn start(&mut self, ctx: &mut Context<'_>) {
        self.self_id = ctx.self_id;
        ctx.schedule_timer(self.cfg.feedback_interval, TICK_TOKEN);
    }

    fn on_packet(&mut self, mut packet: Packet, ctx: &mut Context<'_>) {
        let Some(out) = self.routes.lookup(packet.dst) else {
            self.no_route_drops += 1;
            return;
        };
        if out == 0 && self.record_bottleneck(&mut packet, ctx) {
            return; // consumed by a uniform random drop
        }
        let is_bottleneck_video = out == 0 && Color::is_pels_class(packet.class);
        let dropped = self.ports[out].send(packet, ctx);
        if is_bottleneck_video {
            // Tail drops (queue overflow) per class.
            for d in dropped {
                self.window_drops[d.class.min(3) as usize] += 1;
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
        debug_assert_eq!(token, TICK_TOKEN);
        let fb = self.estimator.tick(self.self_id);
        if self.keep_series {
            let t = ctx.now.as_secs_f64();
            // Sample the video queue's backlog (and its red band when the
            // discipline is the PELS composite).
            let disc: &dyn Any = self.ports[0].discipline();
            let wrr = disc.downcast_ref::<Wrr>();
            let backlog = wrr.map(|w| w.child_len_packets(0) as f64);
            let red_backlog = wrr
                .and_then(|w| (w.child(0) as &dyn Any).downcast_ref::<StrictPriority>())
                .map(|sp| sp.band_len_packets(2) as f64);
            self.feedback_series.push(t, fb.loss);
            self.fgs_loss_series.push(t, fb.fgs_loss);
            if let Some(b) = backlog {
                self.backlog_series.push(t, b);
            }
            if let Some(rb) = red_backlog {
                self.red_backlog_series.push(t, rb);
            }
        }
        self.ticks_in_window += 1;
        if self.ticks_in_window >= LOSS_WINDOW_TICKS {
            self.ticks_in_window = 0;
            let now_s = ctx.now.as_secs_f64();
            self.push_loss_window(now_s);
        }
        ctx.schedule_timer(self.cfg.feedback_interval, TICK_TOKEN);
    }

    fn on_tx_complete(&mut self, port: usize, ctx: &mut Context<'_>) {
        self.ports[port].on_tx_complete(ctx);
    }

    fn on_fault(&mut self, action: &FaultAction, ctx: &mut Context<'_>) {
        apply_port_fault(&mut self.ports, action, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_netsim::packet::{FlowId, FrameTag};
    use pels_netsim::shard::{Partition, ShardedSimulator};
    use pels_netsim::time::{Rate, SimTime};

    struct Sink {
        got: Vec<Packet>,
    }
    impl Agent for Sink {
        fn on_packet(&mut self, p: Packet, _ctx: &mut Context<'_>) {
            self.got.push(p);
        }
    }

    /// Injects a fixed-rate stream of colored packets into the router.
    struct ColorBlaster {
        router: AgentId,
        dst: AgentId,
        gap: SimDuration,
        pattern: Vec<u8>, // classes, cycled
        sent: u64,
        limit: u64,
    }
    impl Agent for ColorBlaster {
        fn start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(self.gap, 0);
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut Context<'_>) {
            if self.sent >= self.limit {
                return;
            }
            let class = self.pattern[(self.sent % self.pattern.len() as u64) as usize];
            let mut pkt = Packet::data(FlowId(1), ctx.self_id, self.dst, 500)
                .with_class(class)
                .with_seq(self.sent)
                .with_frame(FrameTag { frame: 0, index: 0, total: 1, base: 0 });
            pkt.sent_at = ctx.now;
            ctx.deliver(self.router, SimDuration::from_micros(10), pkt);
            self.sent += 1;
            ctx.schedule_timer(self.gap, 0);
        }
    }

    fn build(
        mode: QueueMode,
        gap_us: u64,
        pattern: Vec<u8>,
    ) -> (ShardedSimulator, AgentId, AgentId) {
        let router_id = AgentId(0);
        let sink_id = AgentId(1);

        let bottleneck = Port::new(
            0,
            sink_id,
            Rate::from_mbps(4.0),
            SimDuration::from_millis(5),
            Box::new(DropTail::new(QueueLimit::Packets(1))), // placeholder
        );
        let mut routes = RouteTable::default();
        routes.add(sink_id, 0);
        let cfg = AqmConfig { mode, ..Default::default() };
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(AqmRouter::try_new(bottleneck, vec![], routes, cfg, true).unwrap()),
            Box::new(Sink { got: vec![] }),
            Box::new(ColorBlaster {
                router: router_id,
                dst: sink_id,
                gap: SimDuration::from_micros(gap_us),
                pattern,
                sent: 0,
                limit: u64::MAX,
            }),
            // Saturate the Internet share so WRR actually caps the video
            // child at its 50% (the scheduler is work-conserving).
            Box::new(ColorBlaster {
                router: router_id,
                dst: sink_id,
                gap: SimDuration::from_micros(1_000),
                pattern: vec![3],
                sent: 0,
                limit: u64::MAX,
            }),
        ];
        (ShardedSimulator::new(3, &Partition::serial(4), agents), router_id, sink_id)
    }

    #[test]
    fn stamps_feedback_with_increasing_epochs() {
        // 500 B every 1 ms = 4 Mb/s total, PELS share 2 Mb/s -> overload.
        // (Run 2 s: the yellow queue backlog delays deliveries by ~0.4 s,
        // so the last *delivered* packet carries an epoch from ~1.6 s.)
        let (mut sim, _router, sink) = build(QueueMode::Pels, 1_000, vec![1]);
        sim.run_until(SimTime::from_secs_f64(2.0));
        let got: Vec<&Packet> =
            sim.agent::<Sink>(sink).got.iter().filter(|p| Color::is_pels_class(p.class)).collect();
        assert!(!got.is_empty());
        let epochs: Vec<u64> = got.iter().filter_map(|p| p.feedback().map(|f| f.epoch)).collect();
        assert_eq!(epochs.len(), got.len(), "every video packet is stamped");
        assert!(epochs.windows(2).all(|w| w[0] <= w[1]), "epochs non-decreasing");
        assert!(*epochs.last().unwrap() > 20, "epochs advance with T=30 ms");
        // Overloaded 2:1 -> p ~ 0.5 once measured.
        let last_loss = got.last().unwrap().feedback().unwrap().loss;
        assert!((last_loss - 0.5).abs() < 0.05, "loss {last_loss}");
    }

    #[test]
    fn unroutable_packets_are_counted() {
        let bottleneck = Port::new(
            0,
            AgentId(1),
            Rate::from_mbps(4.0),
            SimDuration::from_millis(5),
            Box::new(DropTail::new(QueueLimit::Packets(1))), // placeholder
        );
        let mut routes = RouteTable::default();
        routes.add(AgentId(1), 0);
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(
                AqmRouter::try_new(bottleneck, vec![], routes, AqmConfig::default(), true).unwrap(),
            ),
            Box::new(Sink { got: vec![] }),
            Box::new(ColorBlaster {
                router: AgentId(0),
                dst: AgentId(99),
                gap: SimDuration::from_millis(1),
                pattern: vec![0],
                sent: 0,
                limit: 3,
            }),
        ];
        let mut sim = ShardedSimulator::new(3, &Partition::serial(3), agents);
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.agent::<AqmRouter>(AgentId(0)).no_route_drops, 3);
        assert!(sim.agent::<Sink>(AgentId(1)).got.is_empty());
    }

    #[test]
    fn pels_mode_starves_red_first() {
        // Overload with mixed yellow/red: red should bear ~all drops.
        let (mut sim, router, sink) = build(QueueMode::Pels, 1_000, vec![1, 2]);
        sim.run_until(SimTime::from_secs_f64(5.0));
        let r = sim.agent::<AqmRouter>(router);
        let red_drops = r.port(0).stats.drops_by_class[2];
        let yellow_drops = r.port(0).stats.drops_by_class[1];
        assert!(red_drops > 100, "red drops {red_drops}");
        assert_eq!(yellow_drops, 0, "yellow must be fully protected here");
        // Delivered yellow packets dominate delivered red.
        let got = &sim.agent::<Sink>(sink).got;
        let yellow = got.iter().filter(|p| p.class == 1).count();
        let red = got.iter().filter(|p| p.class == 2).count();
        assert!(yellow > 2 * red, "yellow {yellow} red {red}");
    }

    #[test]
    fn best_effort_mode_drops_uniformly_but_protects_green() {
        let (mut sim, router, sink) = build(QueueMode::BestEffortUniform, 1_000, vec![0, 1, 1, 1]);
        sim.run_until(SimTime::from_secs_f64(5.0));
        let r = sim.agent::<AqmRouter>(router);
        assert!(r.random_drops > 100, "random drops {}", r.random_drops);
        let got: Vec<&Packet> =
            sim.agent::<Sink>(sink).got.iter().filter(|p| Color::is_pels_class(p.class)).collect();
        let green = got.iter().filter(|p| p.class == 0).count() as f64;
        // 1-in-4 video packets green at 4 Mb/s offered = 1 Mb/s green, all
        // delivered; yellow is thinned, so the delivered green share
        // exceeds the offered 1/4.
        assert!(green > 0.0);
        let frac = green / got.len() as f64;
        assert!(frac > 0.25, "green fraction {frac}");
    }

    #[test]
    fn red_loss_series_is_recorded() {
        let (mut sim, router, _sink) = build(QueueMode::Pels, 1_000, vec![1, 2]);
        sim.run_until(SimTime::from_secs_f64(5.0));
        let r = sim.agent::<AqmRouter>(router);
        assert!(r.red_loss_series.len() >= 3);
        let (_, last) = *r.red_loss_series.points.last().unwrap();
        assert!(last > 0.5, "sustained red loss expected, got {last}");
        assert!(r.feedback_series.len() > 100);
    }
}
