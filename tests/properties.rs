//! Property-based integration tests: randomized configurations of the full
//! stack must preserve the framework's invariants. (Each case runs a short
//! packet simulation, so case counts are kept deliberately small.)

use pels_core::gamma::GammaConfig;
use pels_core::mkc::MkcConfig;
use pels_core::scenario::{pels_flows, Scenario, ScenarioConfig};
use pels_core::source::CcSpec;
use pels_core::FlowSpec;
use pels_netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, .. ProptestConfig::default() })]

    /// For any in-range controller gains and moderate flow counts:
    /// green never drops, every steady-state frame decodes its base layer,
    /// and utility stays above 0.9.
    #[test]
    fn pels_invariants_hold_for_random_configs(
        n_flows in 2usize..6,
        sigma in 0.2f64..1.5,
        beta in 0.3f64..0.7,
        p_thr in 0.6f64..0.9,
        seed in 0u64..1000,
    ) {
        let flow = FlowSpec {
            cc: CcSpec::Mkc(MkcConfig { beta, ..Default::default() }),
            gamma: GammaConfig { sigma, p_thr },
            ..Default::default()
        };
        let cfg = ScenarioConfig {
            seed,
            flows: vec![flow; n_flows],
            keep_series: false,
            ..Default::default()
        };
        let mut s = Scenario::build(cfg);
        s.run_until(SimTime::from_secs_f64(25.0));
        let report = s.report();
        prop_assert_eq!(report.bottleneck_drops_by_class[0], 0, "green must never drop");

        let mut u = pels_fgs::UtilityStats::new();
        for i in 0..n_flows {
            for d in s.receiver(i).decode_all() {
                if d.frame >= 80 {
                    u.add(&d);
                }
            }
        }
        prop_assert!(u.frames > 0);
        prop_assert_eq!(u.base_ok_frames, u.frames, "base layers stay intact");
        prop_assert!(u.utility() > 0.9, "utility {} too low", u.utility());
    }

    /// Fairness: all flows converge to rates within 15% of each other for
    /// any staggered start pattern.
    #[test]
    fn flows_converge_to_fair_shares(
        stagger in 0.0f64..8.0,
        seed in 0u64..1000,
    ) {
        let cfg = ScenarioConfig {
            seed,
            flows: pels_flows(&[0.0, stagger, stagger * 1.5]),
            keep_series: false,
            ..Default::default()
        };
        let mut s = Scenario::build(cfg);
        s.run_until(SimTime::from_secs_f64(30.0));
        let rates: Vec<f64> = (0..3).map(|i| s.source(i).rate_bps()).collect();
        let mean = rates.iter().sum::<f64>() / 3.0;
        for (i, r) in rates.iter().enumerate() {
            prop_assert!(
                (r - mean).abs() < 0.15 * mean,
                "flow {} rate {} vs mean {}", i, r, mean
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Determinism is configuration-independent: any (seed, flows, delay)
    /// triple replays identically.
    #[test]
    fn determinism_for_any_config(
        seed in 0u64..10_000,
        n_flows in 1usize..4,
        delay_ms in 1u64..20,
    ) {
        let run = || {
            let cfg = ScenarioConfig {
                seed,
                flows: pels_flows(&vec![0.0; n_flows]),
                access_delay: SimDuration::from_millis(delay_ms),
                keep_series: false,
                ..Default::default()
            };
            let mut s = Scenario::build(cfg);
            s.run_until(SimTime::from_secs_f64(5.0));
            (s.sim.events_processed(), s.source(0).rate_bps().to_bits())
        };
        prop_assert_eq!(run(), run());
    }
}

/// Harness for the fault-injection properties: a paced packet source driving
/// a single faulted port into a counting sink — a closed system where every
/// packet the source emits must end up delivered, dropped, or still queued.
mod fault_harness {
    use pels_netsim::disc::{DropTail, QueueLimit};
    use pels_netsim::faults::apply_port_fault;
    use pels_netsim::port::Port;
    use pels_netsim::sim::{Agent, Context};
    use pels_netsim::time::{Rate, SimDuration, SimTime};
    use pels_netsim::{AgentId, FaultAction, FlowId, Packet};

    pub const PACKET_BYTES: u32 = 500;

    /// Emits one packet per `gap` until `stop`, honouring port faults.
    pub struct Blaster {
        pub port: Port,
        pub gap: SimDuration,
        pub stop: SimTime,
        pub sent: u64,
        seq: u64,
    }

    impl Blaster {
        pub fn new(peer: AgentId, gap: SimDuration, stop: SimTime) -> Self {
            Blaster {
                port: Port::new(
                    0,
                    peer,
                    Rate::from_mbps(4.0),
                    SimDuration::from_millis(1),
                    Box::new(DropTail::new(QueueLimit::Packets(50))),
                ),
                gap,
                stop,
                sent: 0,
                seq: 0,
            }
        }
    }

    impl Agent for Blaster {
        fn start(&mut self, ctx: &mut Context<'_>) {
            ctx.schedule_timer(SimDuration::ZERO, 1);
        }
        fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
            if ctx.now >= self.stop {
                return;
            }
            let pkt = Packet::data(FlowId(0), ctx.self_id, self.port.peer, PACKET_BYTES)
                .with_seq(self.seq);
            self.seq += 1;
            self.sent += 1;
            self.port.send(pkt, ctx);
            ctx.schedule_timer(self.gap, 1);
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
            self.port.on_tx_complete(ctx);
        }
        fn on_fault(&mut self, action: &FaultAction, ctx: &mut Context<'_>) {
            apply_port_fault(std::slice::from_mut(&mut self.port), action, ctx);
        }
    }

    /// Counts arrivals and records their times.
    pub struct Sink {
        pub got: u64,
        pub arrivals: Vec<SimTime>,
    }

    impl Agent for Sink {
        fn on_packet(&mut self, _p: Packet, ctx: &mut Context<'_>) {
            self.got += 1;
            self.arrivals.push(ctx.now);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Under ANY random fault schedule (link flaps, a queue flush, and a
    /// final forced link-up) the simulation terminates, time advances
    /// monotonically at the sink, and packets are conserved:
    /// sent == delivered + dropped + still queued. With the link restored
    /// and the source stopped, the queue must also fully drain.
    #[test]
    fn fault_schedules_preserve_conservation(
        seed in 0u64..10_000,
        flaps in 1usize..5,
        max_outage_ms in 20u64..400,
        flush in 0u8..2,
    ) {
        use fault_harness::{Blaster, Sink};
        use pels_netsim::faults::FaultSchedule;
        use pels_netsim::{Agent, FaultAction, Partition, ShardedSimulator};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (src, sink) = (pels_netsim::AgentId(0), pels_netsim::AgentId(1));
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(Blaster::new(sink, SimDuration::from_millis(2), SimTime::from_secs_f64(3.0))),
            Box::new(Sink { got: 0, arrivals: vec![] }),
        ];
        let mut sim = ShardedSimulator::new(seed, &Partition::serial(2), agents);

        // `flaps` outages of the source's port, each starting at a uniform
        // point of [0.1 s, 2.5 s) and lasting up to `max_outage_ms`.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut faults = FaultSchedule::new();
        let (start, span_ns) = (SimTime::from_secs_f64(0.1), 2.4e9);
        for _ in 0..flaps {
            let start_off: f64 = rng.gen::<f64>() * span_ns;
            let len_ns: f64 = rng.gen::<f64>() * (max_outage_ms as f64 * 1e6);
            let from = start + SimDuration::from_nanos(start_off as u64);
            let to = from + SimDuration::from_nanos((len_ns as u64).max(1));
            faults.link_outage(src, 0, from, to);
        }
        if flush == 1 {
            faults.flush_at(src, SimTime::from_secs_f64(1.7));
        }
        // Whatever the flaps did, force the link up before the drain window.
        faults.push(
            SimTime::from_secs_f64(3.5),
            src,
            FaultAction::LinkUp { port: 0 },
        );
        sim.install_faults(&faults).expect("valid schedule");

        // Terminates (no deadlock): run_until returns with all work done.
        sim.run_until(SimTime::from_secs_f64(6.0));
        prop_assert!(sim.now() <= SimTime::from_secs_f64(6.0));
        prop_assert!(sim.events_processed() > 0);

        let (sent, dropped, queued) = {
            let b = sim.agent::<Blaster>(src);
            let dropped = b.port.stats.drops_by_class.iter().sum::<u64>();
            (b.sent, dropped, b.port.discipline().len_packets() as u64)
        };
        let s = sim.agent::<Sink>(sink);

        // Monotone time at the sink.
        prop_assert!(s.arrivals.windows(2).all(|w| w[0] <= w[1]));

        // Conservation: every emitted packet is accounted for.
        prop_assert_eq!(
            sent,
            s.got + dropped + queued,
            "sent {} != delivered {} + dropped {} + queued {}",
            sent, s.got, dropped, queued
        );

        // The source emitted for 3 s at 2 ms per packet.
        prop_assert_eq!(sent, 1500);

        // With the link up and the source stopped, the queue drains dry.
        prop_assert_eq!(queued, 0, "queue must drain after the final link-up");
    }
}
