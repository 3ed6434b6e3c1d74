//! The cross-shard exchange as a gate of counts.
//!
//! A cut dumbbell sends every packet and every ACK across the barrier
//! exchange. Arrivals wait in the destination queue's lane
//! (`pels_netsim::event`, "The cross-shard lane") and are merged at pop;
//! only the ones a window leaves unfired are re-scheduled through the heap
//! (`cross_spills`). Every number here is a pure function of the
//! configuration — it repeats exactly, run to run and at any worker count —
//! and the first three were recorded on the commit *before* the lane
//! existed: the lane may change where an arrival waits, never which events
//! fire, how many cross the cut or how many windows it takes.

use pels_core::scenario::{wideband_scaled_config, Scenario};
use pels_netsim::time::SimTime;

const FLOWS: usize = 64;
const HORIZON_S: f64 = 3.0;
const EVENTS: u64 = 895_898;
const CROSS_EVENTS: u64 = 222_986;
const BARRIERS: u64 = 601;

#[test]
fn the_lane_carries_the_exchange_and_moves_no_count() {
    for workers in [1, 2] {
        let mut sc = Scenario::build(wideband_scaled_config(FLOWS, 0.10));
        sc.set_workers(workers);
        sc.run_until(SimTime::from_secs_f64(HORIZON_S));
        let sim = &sc.sim;
        println!(
            "workers={workers}: {} events, {} cross events ({} spilled), {} barriers",
            sim.events_processed(),
            sim.cross_events(),
            sim.cross_spills(),
            sim.barriers(),
        );
        assert_eq!(sim.events_processed(), EVENTS, "workers={workers}");
        assert_eq!(sim.cross_events(), CROSS_EVENTS, "workers={workers}");
        assert_eq!(sim.barriers(), BARRIERS, "workers={workers}");
        // Every cross link of the dumbbell is the 5 ms bottleneck, and a
        // port posts an arrival at serialisation time + 5 ms: a packet
        // spills only when it began transmission within one serialisation
        // time of its window's end. At 64 flows (240 Mb/s) that is 16.7 us
        // per 500-byte data packet and 1.3 us per ACK in a 5 ms window —
        // 0.18 % of what crosses (404 events); the share falls as 1/N,
        // 0.012 % at the benchmark's 1024 flows.
        assert!(
            sim.cross_spills() <= sim.cross_events() / 250,
            "workers={workers}: {} of {} cross events went through the heap",
            sim.cross_spills(),
            sim.cross_events()
        );
    }
}
