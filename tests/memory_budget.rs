//! Bytes per flow as a test: the live heap of a chained scenario, counted
//! by this file's own global allocator, must stay under a budget and must
//! not grow faster than the receiver's 64-byte frame records explain.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

use pels_core::scenario::{wideband_chained_config, Scenario};
use pels_netsim::time::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

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
/// Live heap per flow after 30 simulated seconds (the parent of the PR
/// that added this test measured 280 KiB).
const BUDGET_KIB_PER_FLOW: f64 = 190.0;
/// Growth per flow per simulated second between 10 s and 30 s. A frame
/// record is 64 B and the trace runs at 10 fps, so 0.63 KiB/s is the floor;
/// the parent grew 4.2.
const MAX_GROWTH_KIB_PER_FLOW_S: f64 = 1.0;

#[test]
fn chained_flows_stay_inside_their_memory_budget() {
    let before = LIVE.load(Ordering::Relaxed);
    let mut sc = Scenario::build(wideband_chained_config(FLOWS, 0.10));
    sc.set_workers(1);
    let mut kib_per_flow_at = |secs: f64| {
        sc.run_until(SimTime::from_secs_f64(secs));
        (LIVE.load(Ordering::Relaxed) - before) as f64 / 1024.0 / FLOWS as f64
    };
    let at_10 = kib_per_flow_at(10.0);
    let at_30 = kib_per_flow_at(30.0);
    let growth = (at_30 - at_10) / 20.0;
    println!(
        "live heap per flow: {at_10:.1} KiB at 10 s, {at_30:.1} KiB at 30 s, {growth:.2} KiB/s"
    );
    assert!(at_30 <= BUDGET_KIB_PER_FLOW, "{at_30:.1} KiB per flow at 30 s");
    assert!(growth <= MAX_GROWTH_KIB_PER_FLOW_S, "{growth:.2} KiB per flow per simulated second");
}
