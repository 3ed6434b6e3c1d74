//! Events per packet as a test: how many events the engine dispatches for
//! each packet the shared bottleneck transmits.
//!
//! The count is a pure function of the configuration — it repeats exactly,
//! run to run and at any worker count — so this is a gate, not a timing.
//! When every transmission ended in a `TxComplete` event the figure was
//! 13.2 (1,473,593 events for 111,617 packets): a data packet crosses
//! three ports and its ACK three more, and nearly all but the bottleneck's
//! found an empty queue at completion. A port now schedules a completion
//! only when a packet is waiting behind the one on the wire, which leaves
//! the arrivals, the timers and the completions that dequeue: 8.0
//! (895,898 events for the same packets).

use pels_core::scenario::{wideband_scaled_config, Scenario};
use pels_netsim::time::SimTime;

const FLOWS: usize = 64;
const HORIZON_S: f64 = 3.0;
const MAX_EVENTS_PER_BOTTLENECK_PKT: f64 = 9.0;

#[test]
fn shared_bottleneck_stays_inside_its_event_budget() {
    let mut sc = Scenario::build(wideband_scaled_config(FLOWS, 0.10));
    sc.set_workers(1);
    sc.run_until(SimTime::from_secs_f64(HORIZON_S));
    let events = sc.sim.events_processed();
    let packets: u64 = sc.report().bottleneck_tx_by_class.iter().sum();
    let per_packet = events as f64 / packets as f64;
    println!("{events} events for {packets} bottleneck packets: {per_packet:.2} per packet");
    assert!(packets > 50_000, "the bottleneck must be loaded, sent {packets}");
    assert!(
        per_packet <= MAX_EVENTS_PER_BOTTLENECK_PKT,
        "{per_packet:.2} events per bottleneck packet ({events} / {packets})"
    );
}
