//! A constant-bit-rate source: emits fixed-size packets at a fixed rate,
//! optionally only during an on-interval. Used as background/interfering
//! traffic (e.g. to move a bottleneck mid-experiment) and as a load
//! generator in tests.

use crate::packet::{AgentId, FlowId, Packet};
use crate::port::Port;
use crate::sim::{Agent, Context};
use crate::time::{Rate, SimDuration, SimTime};

/// Configuration of a [`CbrSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbrConfig {
    /// Flow identifier.
    pub flow: FlowId,
    /// Destination agent.
    pub dst: AgentId,
    /// Emission rate.
    pub rate: Rate,
    /// Packet size, bytes.
    pub packet_bytes: u32,
    /// Wire class (PELS color or Internet class).
    pub class: u8,
    /// When to start emitting.
    pub start_at: SimDuration,
    /// When to stop emitting (absolute simulation time); `SimTime::MAX`
    /// for never.
    pub stop_at: SimTime,
}

impl CbrConfig {
    /// A convenience constructor for an always-on flow.
    pub fn new(flow: FlowId, dst: AgentId, rate: Rate, packet_bytes: u32, class: u8) -> Self {
        CbrConfig {
            flow,
            dst,
            rate,
            packet_bytes,
            class,
            start_at: SimDuration::ZERO,
            stop_at: SimTime::MAX,
        }
    }
}

/// The CBR source agent.
#[derive(Debug)]
pub struct CbrSource {
    cfg: CbrConfig,
    port: Port,
    gap: SimDuration,
    seq: u64,
    /// Packets emitted so far.
    pub sent: u64,
}

impl CbrSource {
    /// Creates a source sending through `port`.
    ///
    /// # Panics
    ///
    /// Panics if the rate or packet size is zero.
    pub fn new(cfg: CbrConfig, port: Port) -> Self {
        assert!(cfg.rate.as_bps() > 0, "rate must be positive");
        assert!(cfg.packet_bytes > 0, "packet size must be positive");
        let gap =
            SimDuration::from_secs_f64(cfg.packet_bytes as f64 * 8.0 / cfg.rate.as_bps() as f64);
        CbrSource { cfg, port, gap, seq: 0, sent: 0 }
    }

    /// The inter-packet gap implied by the configured rate.
    pub fn gap(&self) -> SimDuration {
        self.gap
    }
}

impl Agent for CbrSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule_timer(self.cfg.start_at, 0);
    }

    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        if ctx.now >= self.cfg.stop_at {
            return;
        }
        let mut pkt = Packet::data(self.cfg.flow, ctx.self_id, self.cfg.dst, self.cfg.packet_bytes)
            .with_class(self.cfg.class)
            .with_seq(self.seq);
        pkt.sent_at = ctx.now;
        self.seq += 1;
        self.sent += 1;
        self.port.send(pkt, ctx);
        ctx.schedule_timer(self.gap, 0);
    }

    fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
        self.port.on_tx_complete(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disc::{DropTail, QueueLimit};
    use crate::shard::{Partition, ShardedSimulator};

    struct Counter {
        got: u64,
        bytes: u64,
    }
    impl Agent for Counter {
        fn on_packet(&mut self, p: Packet, _ctx: &mut Context<'_>) {
            self.got += 1;
            self.bytes += p.size_bytes as u64;
        }
    }

    fn build(cfg: CbrConfig) -> (ShardedSimulator, AgentId) {
        let sink = AgentId(1);
        let port = Port::new(
            0,
            sink,
            Rate::from_mbps(10.0),
            SimDuration::from_millis(1),
            Box::new(DropTail::new(QueueLimit::Packets(100))),
        );
        let agents: Vec<Box<dyn Agent>> =
            vec![Box::new(CbrSource::new(cfg, port)), Box::new(Counter { got: 0, bytes: 0 })];
        (ShardedSimulator::new(1, &Partition::serial(2), agents), sink)
    }

    #[test]
    fn emits_at_the_configured_rate() {
        // 1 Mb/s of 500-byte packets = 250 packets/s.
        let cfg = CbrConfig::new(FlowId(9), AgentId(1), Rate::from_mbps(1.0), 500, 3);
        let (mut sim, sink) = build(cfg);
        sim.run_until(SimTime::from_secs_f64(4.0));
        let c = sim.agent::<Counter>(sink);
        assert!((995..=1005).contains(&c.got), "got {}", c.got);
        assert!((c.bytes as f64 * 8.0 / 4.0 - 1_000_000.0).abs() < 10_000.0);
    }

    #[test]
    fn respects_start_and_stop() {
        let cfg = CbrConfig {
            start_at: SimDuration::from_secs(1),
            stop_at: SimTime::from_secs_f64(2.0),
            ..CbrConfig::new(FlowId(9), AgentId(1), Rate::from_mbps(1.0), 500, 3)
        };
        let (mut sim, sink) = build(cfg);
        sim.run_until(SimTime::from_secs_f64(0.9));
        assert_eq!(sim.agent::<Counter>(sink).got, 0);
        sim.run_until(SimTime::from_secs_f64(4.0));
        let got = sim.agent::<Counter>(sink).got;
        // One second of emission: ~250 packets.
        assert!((245..=255).contains(&got), "got {got}");
    }

    #[test]
    fn carries_class_and_seq() {
        let cfg = CbrConfig::new(FlowId(9), AgentId(1), Rate::from_mbps(2.0), 500, 1);
        let (mut sim, _sink) = build(cfg);
        sim.run_until(SimTime::from_secs_f64(0.5));
        let src = sim.agent::<CbrSource>(AgentId(0));
        assert!(src.sent > 200);
        assert_eq!(src.gap(), SimDuration::from_millis(2));
    }
}

/// A Poisson packet source: fixed-size packets with exponential
/// inter-arrival gaps. Together with the fixed-rate [`Port`] server this
/// realizes an M/D/1 queue, which the integration tests validate against
/// the Pollaczek–Khinchine formula.
#[derive(Debug)]
pub struct PoissonSource {
    cfg: CbrConfig,
    port: Port,
    mean_gap_s: f64,
    seq: u64,
    /// Packets emitted so far.
    pub sent: u64,
}

impl PoissonSource {
    /// Creates a source whose *mean* rate matches `cfg.rate`.
    ///
    /// # Panics
    ///
    /// Panics if the rate or packet size is zero.
    pub fn new(cfg: CbrConfig, port: Port) -> Self {
        assert!(cfg.rate.as_bps() > 0, "rate must be positive");
        assert!(cfg.packet_bytes > 0, "packet size must be positive");
        let mean_gap_s = cfg.packet_bytes as f64 * 8.0 / cfg.rate.as_bps() as f64;
        PoissonSource { cfg, port, mean_gap_s, seq: 0, sent: 0 }
    }

    fn schedule_next(&self, ctx: &mut Context<'_>) {
        // Exponential gap via inverse CDF of this agent's deterministic RNG.
        let u: f64 = rand::Rng::gen::<f64>(ctx.rng());
        let gap = -self.mean_gap_s * (1.0 - u).ln();
        ctx.schedule_timer(SimDuration::from_secs_f64(gap.min(1e4)), 0);
    }
}

impl Agent for PoissonSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        ctx.schedule_timer(self.cfg.start_at, 0);
    }

    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
        if ctx.now >= self.cfg.stop_at {
            return;
        }
        let mut pkt = Packet::data(self.cfg.flow, ctx.self_id, self.cfg.dst, self.cfg.packet_bytes)
            .with_class(self.cfg.class)
            .with_seq(self.seq);
        pkt.sent_at = ctx.now;
        self.seq += 1;
        self.sent += 1;
        self.port.send(pkt, ctx);
        self.schedule_next(ctx);
    }

    fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
        self.port.on_tx_complete(ctx);
    }
}

/// An agent that drops everything it receives: the destination of
/// background traffic nobody measures.
#[derive(Debug)]
pub struct NullSink;

impl Agent for NullSink {
    fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
}

#[cfg(test)]
mod poisson_tests {
    use super::*;
    use crate::disc::{DropTail, QueueLimit};
    use crate::shard::{Partition, ShardedSimulator};
    use crate::time::SimTime;

    struct Counter {
        got: u64,
        gaps: Vec<f64>,
        last: Option<f64>,
    }
    impl Agent for Counter {
        fn on_packet(&mut self, _p: Packet, ctx: &mut Context<'_>) {
            self.got += 1;
            let now = ctx.now.as_secs_f64();
            if let Some(last) = self.last {
                self.gaps.push(now - last);
            }
            self.last = Some(now);
        }
    }

    #[test]
    fn mean_rate_and_exponential_gaps() {
        let sink = AgentId(1);
        // 500 packets/s mean (2 Mb/s of 500-byte packets) over a fast link
        // so queueing barely perturbs the gaps.
        let port = Port::new(
            0,
            sink,
            Rate::from_mbps(100.0),
            SimDuration::from_millis(1),
            Box::new(DropTail::new(QueueLimit::Packets(10_000))),
        );
        let cfg = CbrConfig::new(FlowId(1), sink, Rate::from_mbps(2.0), 500, 3);
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(PoissonSource::new(cfg, port)),
            Box::new(Counter { got: 0, gaps: vec![], last: None }),
        ];
        let mut sim = ShardedSimulator::new(17, &Partition::serial(2), agents);
        sim.run_until(SimTime::from_secs_f64(60.0));
        let c = sim.agent::<Counter>(sink);
        let rate = c.got as f64 / 60.0;
        assert!((rate - 500.0).abs() < 20.0, "rate {rate}");
        // Exponential gaps: std dev ~ mean, CV ~ 1.
        let mean = c.gaps.iter().sum::<f64>() / c.gaps.len() as f64;
        let var = c.gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / c.gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.1, "coefficient of variation {cv}");
    }
}
