//! Serve's bytes per flow as a test (the simulator's is
//! `tests/memory_budget.rs`): the live heap of a `ServeLoop` streaming to
//! 512 flows at 100 Mb/s — the benchmark's `wire_paced` — counted by this
//! file's own global allocator, on `MemHub` and a clock stepped one
//! millisecond at a time against the ACK-echoing client of `common`.
//!
//! One `#[test]` only: the counter is process-wide, and a second test
//! running beside it would be counted too.

mod common;

use pels_netsim::clock::{Clock, ManualClock};
use pels_netsim::time::SimDuration;
use pels_wire::{MemHub, ServeConfig, ServeLoop};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::SocketAddr;
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

const FLOWS: u32 = 512;
/// Live heap per flow at 10 simulated seconds: 6.84 KiB measured (the hub's
/// datagram pool included). A flow that kept each frame as a list of
/// 40-byte planned packets, with the capacity of its largest frame, read
/// 7.62; 34.9 when the router queued each packet's 478 encoded bytes in a
/// pooled buffer of its own where this one queues a 64-byte plan (20.9 KiB
/// with that alone) and the timer wheel kept every slot's high-water
/// capacity where this one frees a slot it has drained.
const BUDGET_KIB_PER_FLOW: f64 = 7.2;
/// Growth of the live heap between 60 s and 90 s: 0.4 % measured (7.30 to
/// 7.33 KiB per flow).
///
/// This harness is the wheel's worst case: all 512 flows register in one
/// poll and are fed identical feedback, so they stay in phase and every
/// timer they arm lands, 512 events at once, in one of the wheel's 2048
/// one-millisecond slots. While slots kept their capacity that was 13 KiB
/// per flow at 10 s, 34 at 60 s and still +7.6 % of the whole heap from
/// 60 s to 90 s, flat only past 150 s. A heap that grows now is a leak.
const MAX_LATE_GROWTH: f64 = 0.02;

#[cfg_attr(
    debug_assertions,
    ignore = "a debug build steps these 90 s in a minute or more; run it with --release"
)]
#[test]
fn serve_stays_inside_its_memory_budget_and_goes_flat() {
    let addr = |port: u16| -> SocketAddr { ([127, 0, 0, 1], port).into() };
    let (hub, clock) = (MemHub::new(), ManualClock::new());
    let before = LIVE.load(Ordering::Relaxed);
    let cfg = ServeConfig { max_flows: FLOWS as usize, ..ServeConfig::new(addr(1)) };
    let mut server = ServeLoop::new(cfg, hub.endpoint(addr(1)), None);
    let client = hub.endpoint(addr(2));
    let mut ms = 0u64;
    let mut kib_per_flow_at = |secs: u64| {
        while ms < secs * 1_000 {
            if ms.is_multiple_of(100) {
                common::hello_all(&client, FLOWS, addr(1));
            }
            common::echo_acks(&client, addr(1));
            server.poll(clock.now()).unwrap();
            clock.advance(SimDuration::from_millis(1));
            ms += 1;
        }
        (LIVE.load(Ordering::Relaxed) - before) as f64 / 1024.0 / f64::from(FLOWS)
    };
    let (at_10, at_60, at_90) = (kib_per_flow_at(10), kib_per_flow_at(60), kib_per_flow_at(90));
    println!("live heap per flow: {at_10:.2} KiB at 10 s, {at_60:.2} at 60 s, {at_90:.2} at 90 s");
    assert!(at_10 <= BUDGET_KIB_PER_FLOW, "{at_10:.1} KiB per flow at 10 s");
    let late_growth = at_90 / at_60 - 1.0;
    assert!(late_growth < MAX_LATE_GROWTH, "{:.1} % from 60 s to 90 s", late_growth * 100.0);
}
