//! Sim ↔ wire cross-validation: the same control laws must find the same
//! operating point whether they run inside the discrete-event simulator or
//! over the (deterministic, mock-clock) wire transport.
//!
//! MKC's Lemma 6 gives the stationary rate `r* = C/N + α/β` independent of
//! the path; with one flow on a 4 Mb/s bottleneck at a 50% PELS share and
//! the default gains (α = 20 kb/s, β = 0.5), `r* = 2 000 + 40 = 2 040 kb/s`.
//! Both stacks must land within 5% of each other and of the closed form.

use pels_core::scenario::{default_trace, FlowSpec, Scenario, ScenarioConfig};
use pels_netsim::time::SimDuration;
use pels_wire::live::{run_live, LiveBackend, LiveConfig};

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
    scenario.run_for(SimDuration::from_secs(30));
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
