//! Calibration of the packet simulator against classical queueing theory:
//! Poisson arrivals into a fixed-rate port form an M/D/1 queue, whose mean
//! sojourn time the Pollaczek–Khinchine formula predicts exactly. If these
//! tests pass, the simulator's notion of "link", "queue", and "delay" is
//! trustworthy ground for every PELS experiment built on top.

use pels_analysis::queueing::{md1_mean_sojourn, mm1_mean_in_system, utilization};
use pels_netsim::cbr::{CbrConfig, PoissonSource};
use pels_netsim::disc::{DropTail, QueueLimit};
use pels_netsim::packet::{AgentId, FlowId, Packet, PacketKind};
use pels_netsim::port::Port;
use pels_netsim::shard::{Partition, ShardedSimulator};
use pels_netsim::sim::{Agent, Context};
use pels_netsim::stats::Summary;
use pels_netsim::time::{Rate, SimDuration, SimTime};

struct DelaySink {
    delays: Summary,
}
impl Agent for DelaySink {
    fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
        if p.kind == PacketKind::Data {
            self.delays.record(ctx.now.duration_since(p.sent_at).as_secs_f64());
        }
    }
}

/// Runs an M/D/1 system at utilization `rho` and returns the measured mean
/// sojourn (queueing + service; propagation is set to zero).
fn measure_md1(rho: f64, seed: u64) -> (f64, f64) {
    let service_rate = Rate::from_mbps(4.0); // 500 B -> 1 ms service
    let packet = 500u32;
    let service_s = 0.001;
    let lambda = rho / service_s; // packets per second
    let arrival_rate = Rate::from_bps((lambda * packet as f64 * 8.0) as u64);

    let sink = AgentId(1);
    let port = Port::new(
        0,
        sink,
        service_rate,
        SimDuration::ZERO,
        Box::new(DropTail::new(QueueLimit::Packets(1_000_000))),
    );
    let cfg = CbrConfig::new(FlowId(1), sink, arrival_rate, packet, 3);
    let agents: Vec<Box<dyn Agent>> = vec![
        Box::new(PoissonSource::new(cfg, port)),
        Box::new(DelaySink { delays: Summary::new() }),
    ];
    let mut sim = ShardedSimulator::new(seed, &Partition::serial(2), agents);
    sim.run_until(SimTime::from_secs_f64(400.0));

    let measured = sim.agent::<DelaySink>(sink).delays.mean();
    let predicted = md1_mean_sojourn(lambda, service_s);
    (measured, predicted)
}

#[test]
fn md1_sojourn_matches_pollaczek_khinchine() {
    for (rho, tol) in [(0.3, 0.03), (0.6, 0.05), (0.8, 0.10)] {
        let (measured, predicted) = measure_md1(rho, 42);
        assert!(
            (measured - predicted).abs() < tol * predicted,
            "rho={rho}: measured {measured:.6}s vs P-K {predicted:.6}s"
        );
    }
}

#[test]
fn md1_beats_mm1_variability() {
    // At the same utilization, deterministic service must produce *less*
    // delay than the exponential-service M/M/1 prediction.
    let rho: f64 = 0.7;
    let (measured, _) = measure_md1(rho, 7);
    let service_s = 0.001;
    let mm1_w = mm1_mean_in_system(rho) / (rho / service_s);
    assert!(measured < mm1_w, "M/D/1 {measured:.6}s should undercut M/M/1 {mm1_w:.6}s");
    assert!((utilization(rho / service_s, service_s) - rho).abs() < 1e-12);
}

#[test]
fn empty_system_delay_is_pure_service_time() {
    // At vanishing load the sojourn tends to the bare serialization time.
    let (measured, predicted) = measure_md1(0.02, 3);
    assert!((measured - 0.001).abs() < 0.0001, "measured {measured}");
    assert!((predicted - 0.001).abs() < 0.0001);
}
