//! Deterministic fault injection for any [`Transport`].
//!
//! [`FaultTransport`] is middleware: it wraps a transport and applies a
//! scriptable [`WireFaultSpec`] to every datagram crossing it —
//! per-direction drop / duplicate / reorder / delay / truncate /
//! bit-corrupt probabilities plus timed link [`Blackout`]s. All decisions
//! come from a seeded [`StdRng`] and the run [`Clock`], so a run on
//! [`MemHub`](crate::transport::MemHub) + `ManualClock` is bit-reproducible:
//! same seed + same schedule → byte-identical fault decisions.
//!
//! The fate of each datagram is chosen with a *single* uniform draw over
//! the cumulative probability partition (the same scheme as the
//! simulator's `pels_netsim::faults::ControlFaultPolicy`), so at most one
//! fault applies per datagram and disabling one fault never perturbs the
//! random stream of another.
//!
//! A [`WireFaultSpec::is_passthrough`] spec short-circuits both directions
//! before touching the RNG or the lock, which is how `pels live` without
//! `--faults` stays byte-identical to an unwrapped transport.

use crate::transport::Transport;
use pels_netsim::clock::Clock;
use pels_netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A half-open interval of run time, `[from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// When the window opens.
    pub from: SimTime,
    /// When the window closes (exclusive).
    pub to: SimTime,
}

impl FaultWindow {
    /// Whether `now` falls inside the window.
    pub fn contains(self, now: SimTime) -> bool {
        now >= self.from && now < self.to
    }
}

/// Which direction(s) of a [`FaultTransport`] a blackout severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDirection {
    /// Outgoing datagrams (`send_to`).
    Tx,
    /// Incoming datagrams (`try_recv`).
    Rx,
    /// Both directions.
    Both,
}

impl FaultDirection {
    fn covers(self, dir: FaultDirection) -> bool {
        self == FaultDirection::Both || self == dir
    }
}

/// A total link outage for one direction during a time window: every
/// datagram in the covered direction is silently discarded (and counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blackout {
    /// When the outage applies.
    pub window: FaultWindow,
    /// Which direction it severs.
    pub direction: FaultDirection,
}

/// Per-direction fault probabilities. Exactly one fate is drawn per
/// datagram from the cumulative partition `[drop | duplicate | reorder |
/// delay | truncate | corrupt | pass]`, so the probabilities must sum to
/// at most 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireFaultPolicy {
    /// Probability the datagram is silently discarded.
    pub drop: f64,
    /// Probability the datagram is delivered now *and* again after
    /// `REORDER_BY`.
    pub duplicate: f64,
    /// Probability the datagram is held for `REORDER_BY`, letting later
    /// traffic overtake it.
    pub reorder: f64,
    /// Probability the datagram is held for `delay_by`.
    pub delay: f64,
    /// Probability the datagram is clipped to a random proper prefix.
    pub truncate: f64,
    /// Probability 1..=`CORRUPT_FLIPS` random bits are flipped.
    pub corrupt: f64,
    /// Hold time for delayed datagrams.
    pub delay_by: SimDuration,
    /// Restricts the probabilistic faults to a time window; `None`
    /// applies them for the whole run. ([`Blackout`]s carry their own
    /// windows and are unaffected.)
    pub window: Option<FaultWindow>,
}

impl Default for WireFaultPolicy {
    /// All probabilities zero (no faults), with the delay hold at a usable
    /// default so a spec only has to raise probabilities.
    fn default() -> Self {
        WireFaultPolicy {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            delay: 0.0,
            truncate: 0.0,
            corrupt: 0.0,
            delay_by: SimDuration::from_millis(40),
            window: None,
        }
    }
}

/// Hold time for reordered datagrams and duplicate copies.
const REORDER_BY: SimDuration = SimDuration::from_millis(5);
/// Maximum bit flips per corrupted datagram.
const CORRUPT_FLIPS: u32 = 8;

impl WireFaultPolicy {
    fn fractions(&self) -> [f64; 6] {
        [self.drop, self.duplicate, self.reorder, self.delay, self.truncate, self.corrupt]
    }

    /// Whether this policy can never fault a datagram.
    pub fn is_quiet(&self) -> bool {
        self.fractions().iter().all(|&f| f == 0.0)
    }

    /// Validates the probability partition.
    ///
    /// # Errors
    ///
    /// Each probability must be in `[0, 1]` and their sum at most 1.
    pub fn validate(&self) -> Result<(), String> {
        for f in self.fractions() {
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("fault probability {f} outside [0, 1]"));
            }
        }
        let sum: f64 = self.fractions().iter().sum();
        if sum > 1.0 {
            return Err(format!("fault probabilities sum to {sum} > 1"));
        }
        if let Some(w) = self.window {
            if w.from >= w.to {
                return Err("fault window must end after it starts".into());
            }
        }
        Ok(())
    }

    fn active(&self, now: SimTime) -> bool {
        self.window.is_none_or(|w| w.contains(now))
    }
}

/// One datagram's drawn fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Pass,
    Drop,
    Duplicate,
    Reorder,
    Delay,
    Truncate,
    Corrupt,
}

impl Fate {
    const FAULTS: [Fate; 6] =
        [Fate::Drop, Fate::Duplicate, Fate::Reorder, Fate::Delay, Fate::Truncate, Fate::Corrupt];

    fn draw(policy: &WireFaultPolicy, rng: &mut StdRng) -> Fate {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (fate, frac) in Fate::FAULTS.iter().zip(policy.fractions()) {
            acc += frac;
            if u < acc {
                return *fate;
            }
        }
        Fate::Pass
    }
}

/// The full fault script for one wrapped transport: a seed, one policy
/// per direction, and any number of timed blackouts.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WireFaultSpec {
    /// Seeds the per-direction RNG streams; the whole fault decision
    /// sequence is a pure function of it.
    pub seed: u64,
    /// Faults applied to outgoing datagrams.
    pub tx: WireFaultPolicy,
    /// Faults applied to incoming datagrams.
    pub rx: WireFaultPolicy,
    /// Timed total outages.
    pub blackouts: Vec<Blackout>,
}

impl WireFaultSpec {
    /// Whether this spec can never touch a datagram. A passthrough
    /// [`FaultTransport`] delegates directly to the inner transport
    /// without drawing from the RNG or taking its lock.
    pub fn is_passthrough(&self) -> bool {
        self.tx.is_quiet() && self.rx.is_quiet() && self.blackouts.is_empty()
    }

    /// Validates both direction policies and every blackout window.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        self.tx.validate().map_err(|e| format!("tx: {e}"))?;
        self.rx.validate().map_err(|e| format!("rx: {e}"))?;
        for b in &self.blackouts {
            if b.window.from >= b.window.to {
                return Err("blackout window must end after it starts".into());
            }
        }
        Ok(())
    }
}

/// Cumulative fault counters, shared out of a [`FaultTransport`] via
/// [`FaultTransport::stats`] so the harness can read them after the
/// transport has been moved into an agent.
#[derive(Debug, Default)]
pub struct WireFaultStats {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    reordered: AtomicU64,
    delayed: AtomicU64,
    truncated: AtomicU64,
    corrupted: AtomicU64,
    blackout_dropped: AtomicU64,
}

impl WireFaultStats {
    /// A point-in-time copy of all counters.
    pub fn totals(&self) -> WireFaultTotals {
        WireFaultTotals {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            corrupted: self.corrupted.load(Ordering::Relaxed),
            blackout_dropped: self.blackout_dropped.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value snapshot of [`WireFaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireFaultTotals {
    /// Datagrams discarded by the drop fate.
    pub dropped: u64,
    /// Datagrams delivered twice.
    pub duplicated: u64,
    /// Datagrams held so later traffic overtook them.
    pub reordered: u64,
    /// Datagrams held for the delay interval.
    pub delayed: u64,
    /// Datagrams clipped to a shorter prefix.
    pub truncated: u64,
    /// Datagrams with flipped bits.
    pub corrupted: u64,
    /// Datagrams discarded inside a blackout window.
    pub blackout_dropped: u64,
}

impl WireFaultTotals {
    /// Sum of all fault events.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.delayed
            + self.truncated
            + self.corrupted
            + self.blackout_dropped
    }

    /// Accumulates another snapshot into this one.
    pub fn add(&mut self, other: &WireFaultTotals) {
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        self.delayed += other.delayed;
        self.truncated += other.truncated;
        self.corrupted += other.corrupted;
        self.blackout_dropped += other.blackout_dropped;
    }
}

/// A datagram held for later release (reorder, delay, duplicate copy).
#[derive(Debug)]
struct Held {
    release_at: SimTime,
    addr: SocketAddr,
    bytes: Vec<u8>,
}

/// RNG streams and held-datagram queues, one lock for both directions.
#[derive(Debug)]
struct FaultState {
    tx_rng: StdRng,
    rx_rng: StdRng,
    /// Outgoing datagrams waiting for their release time; flushed at the
    /// head of every `send_to`.
    tx_held: VecDeque<Held>,
    /// Incoming datagrams waiting for their release time; delivered from
    /// `try_recv` once due.
    rx_held: VecDeque<Held>,
}

fn count(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

fn pop_due(held: &mut VecDeque<Held>, now: SimTime) -> Option<Held> {
    let idx = held.iter().position(|h| h.release_at <= now)?;
    held.remove(idx)
}

fn corrupt_in_place(rng: &mut StdRng, buf: &mut [u8]) {
    if buf.is_empty() {
        return;
    }
    let flips = rng.gen_range(1..=CORRUPT_FLIPS);
    for _ in 0..flips {
        let bit = rng.gen_range(0..buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Fault-injecting middleware around any [`Transport`].
///
/// Holds its own [`Clock`] handle because the [`Transport`] trait is
/// timeless: blackout windows, policy windows, and reorder/delay release
/// times are all evaluated against `clock.now()` at each call.
///
/// # Examples
///
/// ```
/// use pels_wire::faults::{FaultTransport, WireFaultSpec};
/// use pels_wire::transport::{MemHub, Transport};
/// use pels_netsim::clock::ManualClock;
///
/// let hub = MemHub::new();
/// let clock = ManualClock::new();
/// let mut spec = WireFaultSpec { seed: 7, ..WireFaultSpec::default() };
/// spec.tx.drop = 1.0;
/// let a = FaultTransport::new(hub.endpoint("127.0.0.1:9001".parse().unwrap()), &clock, spec);
/// let b = hub.endpoint("127.0.0.1:9002".parse().unwrap());
/// a.send_to(b"doomed", b.local_addr()).unwrap();
/// let mut buf = [0u8; 16];
/// assert!(b.try_recv(&mut buf).unwrap().is_none());
/// assert_eq!(a.stats().totals().dropped, 1);
/// ```
#[derive(Debug)]
pub struct FaultTransport<T: Transport, C: Clock> {
    inner: T,
    clock: C,
    spec: WireFaultSpec,
    /// Hoisted [`WireFaultSpec::is_passthrough`] so the clean path costs
    /// one branch.
    passthrough: bool,
    state: Mutex<FaultState>,
    stats: Arc<WireFaultStats>,
}

impl<T: Transport, C: Clock> FaultTransport<T, C> {
    /// Wraps `inner`, drawing fault decisions from `spec` and time from
    /// `clock`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WireFaultSpec::validate`]; validate
    /// user-supplied specs first for a recoverable error.
    pub fn new(inner: T, clock: C, spec: WireFaultSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("invalid fault spec: {e}");
        }
        let passthrough = spec.is_passthrough();
        // Distinct deterministic streams per direction, decorrelated from
        // the raw seed the same way the sharded simulator derives stream
        // seeds.
        let tx_rng = StdRng::seed_from_u64(pels_netsim::shard::stream_seed(spec.seed, 0));
        let rx_rng = StdRng::seed_from_u64(pels_netsim::shard::stream_seed(spec.seed, 1));
        FaultTransport {
            inner,
            clock,
            spec,
            passthrough,
            state: Mutex::new(FaultState {
                tx_rng,
                rx_rng,
                tx_held: VecDeque::new(),
                rx_held: VecDeque::new(),
            }),
            stats: Arc::new(WireFaultStats::default()),
        }
    }

    /// The shared fault counters; clone the `Arc` before moving the
    /// transport into an agent.
    pub fn stats(&self) -> Arc<WireFaultStats> {
        Arc::clone(&self.stats)
    }

    fn in_blackout(&self, dir: FaultDirection, now: SimTime) -> bool {
        self.spec.blackouts.iter().any(|b| b.direction.covers(dir) && b.window.contains(now))
    }

    fn flush_tx_due(&self, st: &mut FaultState, now: SimTime) -> io::Result<()> {
        while let Some(h) = pop_due(&mut st.tx_held, now) {
            self.inner.send_to(&h.bytes, h.addr)?;
        }
        Ok(())
    }
}

impl<T: Transport, C: Clock> Transport for FaultTransport<T, C> {
    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<()> {
        if self.passthrough {
            return self.inner.send_to(buf, to);
        }
        let now = self.clock.now();
        let mut st = self.state.lock().expect("fault state lock");
        if self.in_blackout(FaultDirection::Tx, now) {
            // The link is severed: the new datagram is lost and held
            // traffic stays queued until the blackout lifts.
            count(&self.stats.blackout_dropped);
            return Ok(());
        }
        // Due held datagrams re-enter the stream at their release time,
        // ahead of anything sent later — flush before the current send.
        self.flush_tx_due(&mut st, now)?;
        let fate = if self.spec.tx.active(now) {
            Fate::draw(&self.spec.tx, &mut st.tx_rng)
        } else {
            Fate::Pass
        };
        match fate {
            Fate::Pass => self.inner.send_to(buf, to)?,
            Fate::Drop => count(&self.stats.dropped),
            Fate::Duplicate => {
                self.inner.send_to(buf, to)?;
                let release_at = now.saturating_add(REORDER_BY);
                st.tx_held.push_back(Held { release_at, addr: to, bytes: buf.to_vec() });
                count(&self.stats.duplicated);
            }
            Fate::Reorder => {
                let release_at = now.saturating_add(REORDER_BY);
                st.tx_held.push_back(Held { release_at, addr: to, bytes: buf.to_vec() });
                count(&self.stats.reordered);
            }
            Fate::Delay => {
                let release_at = now.saturating_add(self.spec.tx.delay_by);
                st.tx_held.push_back(Held { release_at, addr: to, bytes: buf.to_vec() });
                count(&self.stats.delayed);
            }
            Fate::Truncate => {
                if buf.is_empty() {
                    self.inner.send_to(buf, to)?;
                } else {
                    let keep = st.tx_rng.gen_range(0..buf.len());
                    self.inner.send_to(&buf[..keep], to)?;
                    count(&self.stats.truncated);
                }
            }
            Fate::Corrupt => {
                let mut mutated = buf.to_vec();
                corrupt_in_place(&mut st.tx_rng, &mut mutated);
                self.inner.send_to(&mutated, to)?;
                count(&self.stats.corrupted);
            }
        }
        Ok(())
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        if self.passthrough {
            return self.inner.try_recv(buf);
        }
        let now = self.clock.now();
        let mut st = self.state.lock().expect("fault state lock");
        // Agents poll receive every tick even when they have nothing to
        // send, so releasing due tx-held traffic here makes delay and
        // reorder holds time-driven rather than next-send-driven.
        if !self.in_blackout(FaultDirection::Tx, now) {
            self.flush_tx_due(&mut st, now)?;
        }
        if let Some(h) = pop_due(&mut st.rx_held, now) {
            let n = h.bytes.len().min(buf.len());
            buf[..n].copy_from_slice(&h.bytes[..n]);
            return Ok(Some((n, h.addr)));
        }
        loop {
            let Some((n, from)) = self.inner.try_recv(buf)? else {
                return Ok(None);
            };
            if self.in_blackout(FaultDirection::Rx, now) {
                count(&self.stats.blackout_dropped);
                continue;
            }
            let fate = if self.spec.rx.active(now) {
                Fate::draw(&self.spec.rx, &mut st.rx_rng)
            } else {
                Fate::Pass
            };
            match fate {
                Fate::Pass => return Ok(Some((n, from))),
                Fate::Drop => {
                    count(&self.stats.dropped);
                    continue;
                }
                Fate::Duplicate => {
                    let release_at = now.saturating_add(REORDER_BY);
                    st.rx_held.push_back(Held { release_at, addr: from, bytes: buf[..n].to_vec() });
                    count(&self.stats.duplicated);
                    return Ok(Some((n, from)));
                }
                Fate::Reorder => {
                    let release_at = now.saturating_add(REORDER_BY);
                    st.rx_held.push_back(Held { release_at, addr: from, bytes: buf[..n].to_vec() });
                    count(&self.stats.reordered);
                    continue;
                }
                Fate::Delay => {
                    let release_at = now.saturating_add(self.spec.rx.delay_by);
                    st.rx_held.push_back(Held { release_at, addr: from, bytes: buf[..n].to_vec() });
                    count(&self.stats.delayed);
                    continue;
                }
                Fate::Truncate => {
                    if n == 0 {
                        return Ok(Some((n, from)));
                    }
                    let keep = st.rx_rng.gen_range(0..n);
                    count(&self.stats.truncated);
                    return Ok(Some((keep, from)));
                }
                Fate::Corrupt => {
                    corrupt_in_place(&mut st.rx_rng, &mut buf[..n]);
                    count(&self.stats.corrupted);
                    return Ok(Some((n, from)));
                }
            }
        }
    }
}

/// Per-endpoint fault specs for a live run: one [`WireFaultSpec`] for each
/// of the session's two endpoints. The default is fully passthrough, so
/// `LiveFaults` in a config is always safe to apply.
///
/// This is the schema of `pels live --faults FILE` (JSON). The stub serde
/// derive takes complete objects, so a file must spell out every field;
/// serialize a `LiveFaults::default()` for a template to edit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LiveFaults {
    /// Faults on the server's endpoint (data out; HELLO/ACK/NACK/BYE in).
    pub server: WireFaultSpec,
    /// Faults on the receiver's endpoint (data in; HELLO/ACK/NACK/BYE out).
    pub receiver: WireFaultSpec,
}

impl LiveFaults {
    /// Validates both specs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field, prefixed with
    /// the endpoint it belongs to.
    pub fn validate(&self) -> Result<(), String> {
        self.server.validate().map_err(|e| format!("server: {e}"))?;
        self.receiver.validate().map_err(|e| format!("receiver: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::MemHub;
    use pels_netsim::clock::ManualClock;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    fn spec_with(f: impl FnOnce(&mut WireFaultSpec)) -> WireFaultSpec {
        let mut s = WireFaultSpec { seed: 42, ..WireFaultSpec::default() };
        f(&mut s);
        s
    }

    #[test]
    fn passthrough_spec_is_transparent() {
        let hub = MemHub::new();
        let clock = ManualClock::new();
        let a = FaultTransport::new(hub.endpoint(addr(1)), &clock, WireFaultSpec::default());
        let b = hub.endpoint(addr(2));
        assert!(WireFaultSpec::default().is_passthrough());
        a.send_to(b"hello", addr(2)).unwrap();
        let mut buf = [0u8; 16];
        let (n, from) = b.try_recv(&mut buf).unwrap().unwrap();
        assert_eq!((&buf[..n], from), (&b"hello"[..], addr(1)));
        assert_eq!(a.stats().totals().total(), 0);
    }

    #[test]
    fn drop_probability_one_discards_everything() {
        let hub = MemHub::new();
        let clock = ManualClock::new();
        let spec = spec_with(|s| s.tx.drop = 1.0);
        let a = FaultTransport::new(hub.endpoint(addr(1)), &clock, spec);
        let b = hub.endpoint(addr(2));
        for _ in 0..10 {
            a.send_to(b"x", addr(2)).unwrap();
        }
        let mut buf = [0u8; 4];
        assert!(b.try_recv(&mut buf).unwrap().is_none());
        assert_eq!(a.stats().totals().dropped, 10);
    }

    #[test]
    fn duplicate_delivers_now_and_after_hold() {
        let hub = MemHub::new();
        let clock = ManualClock::new();
        let spec = spec_with(|s| {
            s.tx.duplicate = 1.0;
            // Only the first send faults: the window closes immediately.
            s.tx.window = Some(FaultWindow { from: SimTime::ZERO, to: SimTime::from_nanos(1) });
        });
        let a = FaultTransport::new(hub.endpoint(addr(1)), &clock, spec);
        let b = hub.endpoint(addr(2));
        a.send_to(b"twin", addr(2)).unwrap();
        let mut buf = [0u8; 8];
        assert!(b.try_recv(&mut buf).unwrap().is_some());
        assert!(b.try_recv(&mut buf).unwrap().is_none(), "copy still held");
        clock.advance(SimDuration::from_millis(5));
        // The next send flushes due held datagrams before its own.
        a.send_to(b"next", addr(2)).unwrap();
        let mut seen = 0;
        while b.try_recv(&mut buf).unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 2, "the held copy and the next datagram");
        assert_eq!(a.stats().totals().duplicated, 1);
    }

    #[test]
    fn reorder_lets_later_traffic_overtake() {
        let hub = MemHub::new();
        let clock = ManualClock::new();
        let mut spec = spec_with(|s| s.tx.reorder = 1.0);
        // Only the first send faults: window closes immediately after.
        spec.tx.window = Some(FaultWindow { from: SimTime::ZERO, to: SimTime::from_nanos(1) });
        let a = FaultTransport::new(hub.endpoint(addr(1)), &clock, spec);
        let b = hub.endpoint(addr(2));
        a.send_to(b"first", addr(2)).unwrap();
        clock.advance(SimDuration::from_millis(1));
        a.send_to(b"second", addr(2)).unwrap();
        clock.advance(SimDuration::from_millis(10));
        a.send_to(b"third", addr(2)).unwrap();
        let mut buf = [0u8; 16];
        let mut order = Vec::new();
        while let Some((n, _)) = b.try_recv(&mut buf).unwrap() {
            order.push(String::from_utf8_lossy(&buf[..n]).into_owned());
        }
        assert_eq!(order, ["second", "first", "third"], "first overtaken once");
    }

    #[test]
    fn truncate_and_corrupt_mutate_but_deliver() {
        let hub = MemHub::new();
        let clock = ManualClock::new();
        let spec = spec_with(|s| {
            s.rx.truncate = 0.5;
            s.rx.corrupt = 0.5;
        });
        let sender = hub.endpoint(addr(1));
        let b = FaultTransport::new(hub.endpoint(addr(2)), &clock, spec);
        let payload = [0xAAu8; 64];
        for _ in 0..50 {
            sender.send_to(&payload, addr(2)).unwrap();
        }
        let mut buf = [0u8; 64];
        let mut delivered = 0;
        let mut mutated = 0;
        while let Some((n, _)) = b.try_recv(&mut buf).unwrap() {
            delivered += 1;
            if n != payload.len() || buf[..n] != payload[..n] {
                mutated += 1;
            }
        }
        assert_eq!(delivered, 50, "truncate/corrupt never lose datagrams");
        assert!(mutated > 0);
        let t = b.stats().totals();
        assert_eq!(t.truncated + t.corrupted, 50);
        assert!(t.truncated > 0 && t.corrupted > 0);
    }

    #[test]
    fn blackout_window_severs_only_its_direction() {
        let hub = MemHub::new();
        let clock = ManualClock::new();
        let spec = spec_with(|s| {
            s.blackouts.push(Blackout {
                window: FaultWindow { from: SimTime::ZERO, to: SimTime::from_secs_f64(1.0) },
                direction: FaultDirection::Tx,
            });
        });
        let a = FaultTransport::new(hub.endpoint(addr(1)), &clock, spec);
        let b = hub.endpoint(addr(2));
        a.send_to(b"lost", addr(2)).unwrap();
        let mut buf = [0u8; 16];
        assert!(b.try_recv(&mut buf).unwrap().is_none());
        // Rx is unaffected during a Tx blackout.
        b.send_to(b"in", addr(1)).unwrap();
        assert!(a.try_recv(&mut buf).unwrap().is_some());
        // After the window, Tx flows again.
        clock.advance(SimDuration::from_secs(2));
        a.send_to(b"ok", addr(2)).unwrap();
        assert!(b.try_recv(&mut buf).unwrap().is_some());
        assert_eq!(a.stats().totals().blackout_dropped, 1);
    }

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed: u64| -> (Vec<Vec<u8>>, WireFaultTotals) {
            let hub = MemHub::new();
            let clock = ManualClock::new();
            let spec = spec_with(|s| {
                s.seed = seed;
                s.tx.drop = 0.2;
                s.tx.duplicate = 0.2;
                s.tx.truncate = 0.2;
                s.tx.corrupt = 0.2;
            });
            let a = FaultTransport::new(hub.endpoint(addr(1)), &clock, spec);
            let b = hub.endpoint(addr(2));
            for i in 0..100u32 {
                a.send_to(&i.to_be_bytes(), addr(2)).unwrap();
                clock.advance(SimDuration::from_millis(1));
            }
            clock.advance(SimDuration::from_secs(1));
            a.send_to(b"flush", addr(2)).unwrap();
            let mut buf = [0u8; 16];
            let mut got = Vec::new();
            while let Some((n, _)) = b.try_recv(&mut buf).unwrap() {
                got.push(buf[..n].to_vec());
            }
            (got, a.stats().totals())
        };
        let (got_a, stats_a) = run(7);
        let (got_b, stats_b) = run(7);
        assert_eq!(got_a, got_b, "same seed → byte-identical stream");
        assert_eq!(stats_a, stats_b);
        let (got_c, _) = run(8);
        assert_ne!(got_a, got_c, "different seed → different decisions");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        assert!(spec_with(|s| s.tx.drop = 1.5).validate().is_err());
        assert!(spec_with(|s| {
            s.rx.drop = 0.7;
            s.rx.corrupt = 0.7;
        })
        .validate()
        .is_err());
        assert!(spec_with(|s| {
            s.blackouts.push(Blackout {
                window: FaultWindow {
                    from: SimTime::from_secs_f64(2.0),
                    to: SimTime::from_secs_f64(1.0),
                },
                direction: FaultDirection::Both,
            });
        })
        .validate()
        .is_err());
        assert!(spec_with(|_| {}).validate().is_ok());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = spec_with(|s| {
            s.tx.drop = 0.25;
            s.rx.delay = 0.1;
            s.blackouts.push(Blackout {
                window: FaultWindow {
                    from: SimTime::from_secs_f64(1.0),
                    to: SimTime::from_secs_f64(2.0),
                },
                direction: FaultDirection::Rx,
            });
        });
        let faults = LiveFaults { server: spec, ..LiveFaults::default() };
        let json = serde_json::to_string(&faults).unwrap();
        let back: LiveFaults = serde_json::from_str(&json).unwrap();
        assert_eq!(back, faults);
    }
}
