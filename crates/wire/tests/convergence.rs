//! Sim ↔ wire cross-validation: the same control laws must find the same
//! operating point whether they run inside the discrete-event simulator or
//! over the (deterministic, mock-clock) wire transport.
//!
//! MKC's Lemma 6 gives the stationary rate `r* = C/N + α/β` independent of
//! the path; with one flow on a 4 Mb/s bottleneck at a 50% PELS share and
//! the default gains (α = 20 kb/s, β = 0.5), `r* = 2 000 + 40 = 2 040 kb/s`.
//! Both stacks must land within 5% of each other and of the closed form.

use pels_core::scenario::{default_trace, FlowSpec, Scenario, ScenarioConfig};
use pels_netsim::clock::{Clock, ManualClock};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_wire::live::{run_live, LiveBackend, LiveConfig};
use pels_wire::{MemHub, ServeConfig, ServeLoop, WireReceiver, WireReceiverConfig};

/// The closed-form stationary rate for one flow at the default share/gains.
const R_STAR_KBPS: f64 = 2_000.0 + 20.0 / 0.5;

#[test]
fn wire_and_sim_agree_on_the_stationary_rate() {
    // Wire stack: in-memory transport, manual clock, 30 simulated seconds.
    let live = run_live(&LiveConfig {
        duration: SimDuration::from_secs(30),
        trace: default_trace(),
        backend: LiveBackend::Memory,
        ..LiveConfig::default()
    })
    .expect("in-memory run cannot fail");
    let wire_kbps = live.report.flows[0].final_rate_kbps;
    // The simulated comparator runs without ARQ; nothing green was lost on
    // the wire either, so no repair perturbed the operating point.
    assert_eq!(live.stats.retransmissions, 0);

    // Simulator: same bottleneck, same share, same trace, one flow, no TCP
    // cross-traffic (the wire harness has none).
    let mut scenario = Scenario::build(ScenarioConfig {
        flows: vec![FlowSpec::default()],
        n_tcp: 0,
        keep_series: false,
        ..ScenarioConfig::default()
    });
    scenario.sim.run_until(SimTime::ZERO + SimDuration::from_secs(30));
    let sim_kbps = scenario.report().flows[0].final_rate_kbps;

    let rel = |a: f64, b: f64| (a - b).abs() / b;
    assert!(
        rel(wire_kbps, R_STAR_KBPS) < 0.05,
        "wire rate {wire_kbps:.1} kb/s not within 5% of r* = {R_STAR_KBPS} kb/s"
    );
    assert!(
        rel(sim_kbps, R_STAR_KBPS) < 0.05,
        "sim rate {sim_kbps:.1} kb/s not within 5% of r* = {R_STAR_KBPS} kb/s"
    );
    assert!(
        rel(wire_kbps, sim_kbps) < 0.05,
        "wire ({wire_kbps:.1} kb/s) and sim ({sim_kbps:.1} kb/s) disagree by more than 5%"
    );
}

/// N flows share `N × 500 kb/s` of PELS capacity on both stacks: the first
/// step of the sim↔wire differential oracle (end points, not yet the
/// per-epoch trajectory). Lemma 6: `r* = C/N + α/β = 500 + 40 = 540 kb/s`.
/// At N = 4 the wire's shared router has the simulated router's queue
/// limits; at N = 64 it has `ServeConfig::new`'s, the ones `pels serve`
/// runs with.
#[test]
fn four_flows_find_the_same_fair_operating_point_on_both_stacks() {
    flows_find_the_same_fair_operating_point(4, [200, 200, 50]);
}

#[test]
fn sixty_four_flows_find_the_same_fair_operating_point_on_both_stacks() {
    let serve_defaults = ServeConfig::new(([127, 0, 0, 1], 9000).into());
    flows_find_the_same_fair_operating_point(64, serve_defaults.color_limits);
}

fn flows_find_the_same_fair_operating_point(n: usize, wire_color_limits: [usize; 3]) {
    const SECS: u64 = 30;
    let r_star_kbps = 500.0 + 20.0 / 0.5;
    let p_thr = pels_core::GammaConfig::default().p_thr;

    // Simulator: the default dumbbell (1 Mb/s per flow, 50 % PELS share),
    // no TCP.
    let mut scenario = Scenario::build(ScenarioConfig {
        bottleneck: Rate::from_mbps(n as f64),
        flows: vec![FlowSpec::default(); n],
        n_tcp: 0,
        keep_series: true,
        ..ScenarioConfig::default()
    });
    scenario.sim.run_until(SimTime::ZERO + SimDuration::from_secs(SECS));
    let report = scenario.report();
    let sim_kbps: Vec<f64> = (0..n)
        .map(|i| {
            let tail: Vec<f64> = scenario
                .source(i)
                .rate_series
                .iter()
                .filter(|(t, _)| *t >= (SECS - 1) as f64)
                .map(|&(_, kbps)| kbps)
                .collect();
            tail.iter().sum::<f64>() / tail.len() as f64
        })
        .collect();
    let sim_gamma: Vec<f64> = report.flows.iter().map(|f| f.final_gamma).collect();
    let sim_gamma_star = report.router_final_fgs_loss / p_thr;

    // Wire: one `ServeLoop` and N decoding receivers on the in-memory
    // hub, polled every millisecond of a manual clock (receivers first, so
    // a HELLO is queued before the server's poll — `live::Session`'s order).
    let addr = |port: u16| -> std::net::SocketAddr { ([127, 0, 0, 1], port).into() };
    let (hub, clock) = (MemHub::new(), ManualClock::new());
    let mut server = ServeLoop::new(
        ServeConfig {
            capacity: Rate::from_mbps(n as f64 / 2.0),
            packet_bytes: 500,
            trace: default_trace(),
            color_limits: wire_color_limits,
            max_flows: n,
            ..ServeConfig::new(addr(9000))
        },
        hub.endpoint(addr(9000)),
        None,
    );
    let mut receivers: Vec<_> = (1..=n as u32)
        .map(|f| {
            let cfg = WireReceiverConfig { flow: FlowId(f), server: addr(9000), packet_bytes: 500 };
            WireReceiver::new(cfg, hub.endpoint(addr(9000 + f as u16)))
        })
        .collect();
    let mut tail_sum = vec![0.0; n];
    for ms in 0..SECS * 1_000 {
        let now = clock.now();
        for rx in &mut receivers {
            rx.poll(now).unwrap();
        }
        server.poll(now).unwrap();
        if ms >= (SECS - 1) * 1_000 {
            for (f, sum) in tail_sum.iter_mut().enumerate() {
                *sum += server.flow(FlowId(f as u32 + 1)).expect("registered").rate_bps;
            }
        }
        clock.advance(SimDuration::from_millis(1));
    }
    let wire_kbps: Vec<f64> = tail_sum.iter().map(|sum| sum / 1_000.0 / 1_000.0).collect();
    let wire_gamma: Vec<f64> =
        (1..=n as u32).map(|f| server.flow(FlowId(f)).unwrap().gamma).collect();
    let wire_gamma_star = server.report(clock.now()).fgs_loss / p_thr;

    let rel = |a: f64, b: f64| (a - b).abs() / b;
    let jain = |x: &[f64]| {
        x.iter().sum::<f64>().powi(2) / (n as f64 * x.iter().map(|v| v * v).sum::<f64>())
    };
    for f in 0..n {
        let (sim, wire) = (sim_kbps[f], wire_kbps[f]);
        assert!(rel(sim, r_star_kbps) < 0.05, "sim flow {f}: {sim:.1} vs r* {r_star_kbps}");
        assert!(rel(wire, r_star_kbps) < 0.05, "wire flow {f}: {wire:.1} vs r* {r_star_kbps}");
        assert!(rel(wire, sim) < 0.05, "flow {f}: wire {wire:.1} vs sim {sim:.1} kb/s");
        assert!(
            (sim_gamma[f] - sim_gamma_star).abs() < 0.05,
            "sim γ {} vs {sim_gamma_star}",
            sim_gamma[f]
        );
        assert!(
            (wire_gamma[f] - wire_gamma_star).abs() < 0.05,
            "wire γ {} vs {wire_gamma_star}",
            wire_gamma[f]
        );
    }
    assert!(jain(&sim_kbps) >= 0.99, "sim rates {sim_kbps:?}");
    assert!(jain(&wire_kbps) >= 0.99, "wire rates {wire_kbps:?}");
    let mean = |x: &[f64]| x.iter().sum::<f64>() / n as f64;
    println!(
        "{n} flows, r* {r_star_kbps} kb/s: sim {:.1} kb/s, γ {:.3} (γ* {sim_gamma_star:.3}); \
         wire {:.1} kb/s, γ {:.3} (γ* {wire_gamma_star:.3})",
        mean(&sim_kbps),
        mean(&sim_gamma),
        mean(&wire_kbps),
        mean(&wire_gamma)
    );
}

#[test]
fn wire_run_is_reproducible_end_to_end() {
    let cfg = LiveConfig {
        duration: SimDuration::from_secs(5),
        backend: LiveBackend::Memory,
        ..LiveConfig::default()
    };
    let a = run_live(&cfg).unwrap();
    let b = run_live(&cfg).unwrap();
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap(),
        "mock-clock wire runs must be bit-identical"
    );
}
