//! Bytes per flow as a test: the live heap of a chained scenario, of the
//! shared dumbbell and of a generated Waxman graph, counted by this file's
//! own global allocator, must stay under a budget, and the chained one must
//! not grow much faster than the receiver's 40-byte frame records explain.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use pels_core::scenario::{wideband_chained_config, wideband_scaled_config, Scenario};
use pels_netsim::time::SimTime;
use pels_topo::{TopoScenario, TopoSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic beside it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const FLOWS: usize = 8;
/// Live heap per chained flow after 30 simulated seconds: 104.9 KiB
/// measured. With 64-byte frame records and a 128-byte packet it read
/// 128.0; a sender that kept each frame as a list of planned packets, a
/// frame log that grew in 4 KiB chunks and a 144-byte packet read 141.2,
/// and the first version of this test measured 280.
const BUDGET_KIB_PER_FLOW: f64 = 112.0;
/// Growth per flow per simulated second between 10 s and 30 s: 0.48
/// measured. A frame record is 40 B and the trace runs at 10 fps, so
/// 0.39 KiB/s is the floor; 64-byte records grew 0.71.
const MAX_GROWTH_KIB_PER_FLOW_S: f64 = 0.6;

/// Flows on the shared dumbbell (the benchmark's `sim_shared` runs 1024).
const SHARED_FLOWS: usize = 256;
const SHARED_HORIZON_S: f64 = 9.0;
/// Live heap per shared-dumbbell flow at 9 s: 15.3 KiB measured; 18.9 with
/// 64-byte frame records and a 128-byte packet, 26.6 with the
/// planned-packet list, the 4 KiB log chunks and the 144-byte packet. Most
/// of it is the frame log (90 frames of 40 B) and the event queue's share
/// of the bottleneck's backlog.
const SHARED_BUDGET_KIB_PER_FLOW: f64 = 16.5;

/// A generated graph, smaller than the benchmark's `sim_waxman` (512 flows
/// over 64 routers): video flows over several hops, Reno herds on some
/// links. About 3 s of wall time in a debug build, 1.6 s in release.
const WAXMAN: &str = "waxman:routers=32,flows=64,seed=1";
const WAXMAN_FLOWS: usize = 64;
const WAXMAN_HORIZON_S: f64 = 40.0;
/// Live heap per Waxman flow at 40 s: 45.9 KiB measured, 59.6 with 64-byte
/// frame records and a 128-byte packet. Its 400 frames of 40 B are 15.6.
const WAXMAN_BUDGET_KIB_PER_FLOW: f64 = 50.0;

fn kib_per_flow(before: isize, flows: usize) -> f64 {
    (LIVE.load(Ordering::Relaxed) - before) as f64 / 1024.0 / flows as f64
}

#[test]
fn chained_flows_stay_inside_their_memory_budget() {
    let before = LIVE.load(Ordering::Relaxed);
    let mut sc = Scenario::build(wideband_chained_config(FLOWS, 0.10));
    sc.set_workers(1);
    let mut kib_per_flow_at = |secs: f64| {
        sc.run_until(SimTime::from_secs_f64(secs));
        kib_per_flow(before, FLOWS)
    };
    let at_10 = kib_per_flow_at(10.0);
    let at_30 = kib_per_flow_at(30.0);
    let growth = (at_30 - at_10) / 20.0;
    println!(
        "live heap per chained flow: {at_10:.1} KiB at 10 s, {at_30:.1} KiB at 30 s, \
         {growth:.2} KiB/s"
    );
    drop(sc);

    let before = LIVE.load(Ordering::Relaxed);
    let mut shared = Scenario::build(wideband_scaled_config(SHARED_FLOWS, 0.10));
    shared.set_workers(1);
    shared.run_until(SimTime::from_secs_f64(SHARED_HORIZON_S));
    let shared_kib = kib_per_flow(before, SHARED_FLOWS);
    println!("live heap per shared-dumbbell flow: {shared_kib:.2} KiB at {SHARED_HORIZON_S} s");

    let before = LIVE.load(Ordering::Relaxed);
    let started = Instant::now();
    let spec = TopoSpec::from_shorthand(WAXMAN).expect("valid spec");
    let mut waxman = TopoScenario::try_build(spec).unwrap();
    waxman.set_workers(1);
    waxman.run_until(SimTime::from_secs_f64(WAXMAN_HORIZON_S));
    let waxman_kib = kib_per_flow(before, WAXMAN_FLOWS);
    println!(
        "live heap per Waxman flow: {waxman_kib:.2} KiB at {WAXMAN_HORIZON_S} s ({:.2} s wall)",
        started.elapsed().as_secs_f64()
    );

    assert!(at_30 <= BUDGET_KIB_PER_FLOW, "{at_30:.1} KiB per chained flow at 30 s");
    assert!(growth <= MAX_GROWTH_KIB_PER_FLOW_S, "{growth:.2} KiB per flow per simulated second");
    assert!(
        shared_kib <= SHARED_BUDGET_KIB_PER_FLOW,
        "{shared_kib:.2} KiB per shared-dumbbell flow at {SHARED_HORIZON_S} s"
    );
    assert!(
        waxman_kib <= WAXMAN_BUDGET_KIB_PER_FLOW,
        "{waxman_kib:.2} KiB per Waxman flow at {WAXMAN_HORIZON_S} s"
    );
}
