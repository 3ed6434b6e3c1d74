//! Multi-bottleneck streaming: two PELS AQM routers in tandem. Each stamps
//! its feedback with the max-loss override rule (paper Section 5.2), so the
//! sources automatically track the *tighter* bottleneck.
//!
//! Run with: `cargo run --release --example multi_bottleneck`

use pels_core::receiver::PelsReceiver;
use pels_core::router::AqmRouter;
use pels_core::source::PelsSource;
use pels_netsim::time::{Rate, SimTime};
use pels_repro::two_hop_chain;
use pels_topo::spec::{GeneratorSpec, TopoSpec};
use pels_topo::TopoScenario;

fn run(capacity_a_mbps: f64, capacity_b_mbps: f64) {
    let model =
        two_hop_chain(Rate::from_mbps(capacity_a_mbps), Rate::from_mbps(capacity_b_mbps), 2, None);
    // The model is hand-written; the spec only supplies seed and AQM defaults.
    let spec = TopoSpec::new(GeneratorSpec::ParkingLot { segments: 2, cross_per_segment: None });
    let mut t = TopoScenario::try_from_model(model, spec).expect("valid chain");
    t.run_until(SimTime::from_secs_f64(40.0));
    let ids = t.ids;
    let source = |i: usize| t.sim.agent::<PelsSource>(ids.sources[i]);
    let loss = |r: usize| t.sim.agent::<AqmRouter>(ids.routers[r]).estimator().loss();

    let tight = capacity_a_mbps.min(capacity_b_mbps);
    // PELS share is 50%; Lemma 6 with two flows.
    let expect = tight * 1000.0 / 2.0 / 2.0 + 40.0;
    println!(
        "A = {capacity_a_mbps} Mb/s, B = {capacity_b_mbps} Mb/s  ->  \
         flow rates {:.0} / {:.0} kb/s (Lemma 6 target at tight link: {expect:.0})",
        source(0).rate_bps() / 1e3,
        source(1).rate_bps() / 1e3,
    );
    println!(
        "  router A: p = {:+.3}   router B: p = {:+.3}   (positive = bottleneck)",
        loss(0),
        loss(1),
    );
    let mut u = pels_fgs::UtilityStats::new();
    for &id in &ids.receivers {
        for d in t.sim.agent::<PelsReceiver>(id).decode_all() {
            if d.frame >= 50 {
                u.add(&d);
            }
        }
    }
    println!("  end-user utility across both hops: {:.3}\n", u.utility());
    assert!(u.utility() > 0.9);
    let r = source(0).rate_bps() / 1e3;
    assert!((r - expect).abs() < 0.15 * expect, "rate {r} vs {expect}");
}

fn main() {
    println!("=== PELS across two AQM bottlenecks (max-loss feedback override) ===\n");
    // Second hop tighter: B's feedback must win.
    run(4.0, 3.0);
    // First hop tighter: A's feedback must win.
    run(3.0, 4.0);
    // Equal: either may report the binding constraint.
    run(4.0, 4.0);
    println!("sources followed the tighter bottleneck in every case");
}
