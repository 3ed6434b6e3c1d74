//! The clock abstraction shared by the simulator and the live wire runtime.
//!
//! Every control law in this workspace (MKC staleness, γ holds, feedback
//! epochs, pacing) is written against [`SimTime`] — an integer nanosecond
//! count since "the start". Inside the discrete-event simulator that start
//! is simulation time zero and the event loop advances time itself; in the
//! live transport (`pels-wire`) the same state machines run against wall
//! time. A [`Clock`] is the thing that produces "now" in both worlds:
//!
//! * [`ManualClock`] — a hand-advanced clock. Tests and the deterministic
//!   in-memory transport drive it in fixed steps, which makes live-agent
//!   runs exactly reproducible (no wall-clock sensitivity).
//! * [`MonotonicClock`] — wall time, anchored at construction, backed by
//!   [`std::time::Instant`] (monotone, immune to NTP jumps).
//!
//! The agents themselves never own a clock: they expose `poll(now)`-style
//! step functions and stay pure state machines over [`SimTime`], so the sim
//! and the wire share one implementation of every control loop.

use crate::time::{SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A source of "now" as [`SimTime`] (nanoseconds since the clock's origin).
///
/// Implementations must be monotone: successive calls never go backwards.
pub trait Clock {
    /// The current time.
    fn now(&self) -> SimTime;
}

/// A hand-advanced clock for deterministic (mock-time) runs.
///
/// Internally an atomic, so one clock can be shared between threads (e.g.
/// a driver thread stepping time while agents poll), though deterministic
/// tests normally run single-threaded.
///
/// # Examples
///
/// ```
/// use pels_netsim::clock::{Clock, ManualClock};
/// use pels_netsim::time::SimDuration;
///
/// let clock = ManualClock::new();
/// assert_eq!(clock.now().as_nanos(), 0);
/// clock.advance(SimDuration::from_millis(30));
/// assert_eq!(clock.now().as_nanos(), 30_000_000);
/// ```
#[derive(Debug, Default)]
pub struct ManualClock {
    now_ns: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d` and returns the new time.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let ns = self.now_ns.fetch_add(d.as_nanos(), Ordering::SeqCst) + d.as_nanos();
        SimTime::from_nanos(ns)
    }

    /// Moves the clock to `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time (clocks are monotone).
    pub fn set(&self, t: SimTime) {
        let cur = self.now_ns.load(Ordering::SeqCst);
        assert!(t.as_nanos() >= cur, "ManualClock must not go backwards: {t} < {cur} ns");
        self.now_ns.store(t.as_nanos(), Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::SeqCst))
    }
}

/// Wall-clock time since construction, as [`SimTime`].
///
/// Backed by [`Instant`], so it is monotone and unaffected by system clock
/// adjustments. Two `MonotonicClock`s share a timeline only if one is cloned
/// from the other (the origin is captured at `new`).
#[derive(Debug, Clone, Copy)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        MonotonicClock { origin: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos().min(u64::MAX as u128) as u64)
    }
}

impl<C: Clock + ?Sized> Clock for &C {
    fn now(&self) -> SimTime {
        (**self).now()
    }
}

impl<C: Clock + ?Sized> Clock for std::sync::Arc<C> {
    fn now(&self) -> SimTime {
        (**self).now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_and_sets() {
        let c = ManualClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        let t = c.advance(SimDuration::from_micros(250));
        assert_eq!(t, c.now());
        c.set(SimTime::from_secs_f64(1.0));
        assert_eq!(c.now().as_nanos(), 1_000_000_000);
    }

    #[test]
    #[should_panic(expected = "must not go backwards")]
    fn manual_clock_rejects_rewind() {
        let c = ManualClock::new();
        c.set(SimTime::from_secs_f64(2.0));
        c.set(SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn manual_clock_shared_through_arc() {
        let c = std::sync::Arc::new(ManualClock::new());
        c.advance(SimDuration::from_millis(5));
        fn read(clock: impl Clock) -> SimTime {
            clock.now()
        }
        assert_eq!(read(c.clone()).as_nanos(), 5_000_000);
        assert_eq!(read(&*c).as_nanos(), 5_000_000);
    }

    #[test]
    fn monotonic_clock_moves_forward() {
        let c = MonotonicClock::new();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b > a);
    }
}
