//! The wire's fault injector: [`FaultTransport`], middleware around any
//! [`Transport`].
//!
//! It applies a scriptable [`WireFaultSpec`] to every datagram crossing it
//! — per-direction drop / duplicate / reorder / delay / truncate /
//! bit-corrupt probabilities plus timed link [`Blackout`]s — in the fault
//! vocabulary the simulator uses (`pels_netsim::faults`): one [`Fate`]
//! per datagram from one uniform draw over the cumulative partition, one
//! [`validate_fractions`] rule, one [`FaultWindow`]. All decisions come
//! from a seeded [`StdRng`] per direction and the run [`Clock`], so a run
//! on [`MemHub`](crate::transport::MemHub) + `ManualClock` is
//! bit-reproducible: same seed + same schedule → byte-identical fault
//! decisions.
//!
//! A [`WireFaultSpec::is_passthrough`] spec short-circuits both directions
//! before touching the RNG or the lock, which is how `pels live` without
//! `--faults` stays byte-identical to an unwrapped transport.

use crate::transport::Transport;
use pels_netsim::clock::Clock;
pub use pels_netsim::faults::FaultWindow;
use pels_netsim::faults::{validate_fractions, Fate};
use pels_netsim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

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

/// A total link outage for one direction during a time window: every
/// datagram in the covered direction is silently discarded (and counted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Blackout {
    /// When the outage applies.
    pub window: FaultWindow,
    /// Which direction it severs.
    pub direction: FaultDirection,
}

/// Per-direction fault probabilities: the whole partition `[drop |
/// duplicate | reorder | delay | truncate | corrupt | pass]`, one [`Fate`]
/// drawn per datagram.
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
        let quiet = |p: &WireFaultPolicy| p.fractions().iter().all(|&f| f == 0.0);
        quiet(&self.tx) && quiet(&self.rx) && self.blackouts.is_empty()
    }

    /// Validates both direction policies (their partitions and windows) and
    /// every blackout window.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        for (direction, policy) in [("tx", &self.tx), ("rx", &self.rx)] {
            let window = policy.window.map_or(Ok(()), FaultWindow::validate);
            validate_fractions(&policy.fractions())
                .and(window)
                .map_err(|e| format!("{direction}: {e}"))?;
        }
        for b in &self.blackouts {
            b.window.validate().map_err(|e| format!("blackout: {e}"))?;
        }
        Ok(())
    }
}

/// Fault decisions a [`FaultTransport`] took, by kind.
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
    fn counter(&mut self, fate: Fate) -> Option<&mut u64> {
        match fate {
            Fate::Pass => None,
            Fate::Drop => Some(&mut self.dropped),
            Fate::Duplicate => Some(&mut self.duplicated),
            Fate::Reorder => Some(&mut self.reordered),
            Fate::Delay => Some(&mut self.delayed),
            Fate::Truncate => Some(&mut self.truncated),
            Fate::Corrupt => Some(&mut self.corrupted),
        }
    }

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

/// One direction's RNG stream and the datagrams it holds for later.
#[derive(Debug)]
struct Direction {
    rng: StdRng,
    held: VecDeque<Held>,
}

impl Direction {
    fn pop_due(&mut self, now: SimTime) -> Option<Held> {
        let idx = self.held.iter().position(|h| h.release_at <= now)?;
        self.held.remove(idx)
    }

    /// Draws the fate of `bytes` (to or from `addr`) under `policy`, holds
    /// what it holds and counts the fault in `totals`. Returns the bytes
    /// that go through now, if any. Both directions decide here, so each
    /// direction's stream is consumed the same way: the fate, then the
    /// prefix length of a truncation or the bits of a corruption.
    fn decide<'a>(
        &mut self,
        policy: &WireFaultPolicy,
        now: SimTime,
        addr: SocketAddr,
        bytes: &'a [u8],
        totals: &mut WireFaultTotals,
    ) -> Option<Cow<'a, [u8]>> {
        let mut fate = Fate::Pass;
        if policy.window.is_none_or(|w| w.contains(now)) {
            fate = Fate::draw(&policy.fractions(), &mut self.rng);
        }
        if fate == Fate::Truncate && bytes.is_empty() {
            // Nothing to clip: the datagram passes and nothing is counted.
            fate = Fate::Pass;
        }
        if let Some(counter) = totals.counter(fate) {
            *counter += 1;
        }
        match fate {
            Fate::Pass => Some(Cow::Borrowed(bytes)),
            Fate::Drop => None,
            Fate::Duplicate | Fate::Reorder | Fate::Delay => {
                // A duplicate goes through now and its copy later; the
                // others only later.
                let by = if fate == Fate::Delay { policy.delay_by } else { REORDER_BY };
                let release_at = now.saturating_add(by);
                self.held.push_back(Held { release_at, addr, bytes: bytes.to_vec() });
                (fate == Fate::Duplicate).then_some(Cow::Borrowed(bytes))
            }
            Fate::Truncate => Some(Cow::Borrowed(&bytes[..self.rng.gen_range(0..bytes.len())])),
            Fate::Corrupt if bytes.is_empty() => Some(Cow::Borrowed(bytes)),
            Fate::Corrupt => {
                let mut mutated = bytes.to_vec();
                for _ in 0..self.rng.gen_range(1..=CORRUPT_FLIPS) {
                    let bit = self.rng.gen_range(0..mutated.len() * 8);
                    mutated[bit / 8] ^= 1 << (bit % 8);
                }
                Some(Cow::Owned(mutated))
            }
        }
    }
}

/// Both directions and the counters, under one lock.
#[derive(Debug)]
struct FaultState {
    tx: Direction,
    rx: Direction,
    totals: WireFaultTotals,
}

/// A [`FaultTransport`]'s counters, readable after the transport has moved
/// into an agent.
#[derive(Debug, Clone)]
pub struct FaultCounters(Arc<Mutex<FaultState>>);

impl FaultCounters {
    /// The fault decisions taken so far.
    pub fn totals(&self) -> WireFaultTotals {
        self.0.lock().expect("fault state lock").totals
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
    state: Arc<Mutex<FaultState>>,
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
        spec.validate().unwrap_or_else(|e| panic!("invalid fault spec: {e}"));
        // One stream per direction, decorrelated from the raw seed the way
        // the sharded simulator derives its stream seeds.
        let direction = |stream| Direction {
            rng: StdRng::seed_from_u64(pels_netsim::shard::stream_seed(spec.seed, stream)),
            held: VecDeque::new(),
        };
        let (tx, rx) = (direction(0), direction(1));
        let state = FaultState { tx, rx, totals: WireFaultTotals::default() };
        let passthrough = spec.is_passthrough();
        FaultTransport { inner, clock, spec, passthrough, state: Arc::new(Mutex::new(state)) }
    }

    /// The transport's fault counters; take the handle before moving the
    /// transport into an agent.
    pub fn stats(&self) -> FaultCounters {
        FaultCounters(Arc::clone(&self.state))
    }

    fn in_blackout(&self, dir: FaultDirection, now: SimTime) -> bool {
        let covers = |b: &Blackout| b.direction == FaultDirection::Both || b.direction == dir;
        self.spec.blackouts.iter().any(|b| covers(b) && b.window.contains(now))
    }

    fn flush_tx_due(&self, st: &mut FaultState, now: SimTime) -> io::Result<()> {
        while let Some(h) = st.tx.pop_due(now) {
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
            st.totals.blackout_dropped += 1;
            return Ok(());
        }
        // Due held datagrams re-enter the stream at their release time,
        // ahead of anything sent later — flush before the current send.
        self.flush_tx_due(&mut st, now)?;
        let FaultState { tx, totals, .. } = &mut *st;
        match tx.decide(&self.spec.tx, now, to, buf, totals) {
            Some(bytes) => self.inner.send_to(&bytes, to),
            None => Ok(()),
        }
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
        if let Some(h) = st.rx.pop_due(now) {
            let n = h.bytes.len().min(buf.len());
            buf[..n].copy_from_slice(&h.bytes[..n]);
            return Ok(Some((n, h.addr)));
        }
        loop {
            let Some((n, from)) = self.inner.try_recv(buf)? else {
                return Ok(None);
            };
            if self.in_blackout(FaultDirection::Rx, now) {
                st.totals.blackout_dropped += 1;
                continue;
            }
            let FaultState { rx, totals, .. } = &mut *st;
            let len = match rx.decide(&self.spec.rx, now, from, &buf[..n], totals) {
                None => continue,
                Some(Cow::Borrowed(bytes)) => bytes.len(),
                Some(Cow::Owned(bytes)) => {
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    bytes.len()
                }
            };
            return Ok(Some((len, from)));
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
    fn fractions_that_round_past_one_are_valid() {
        // 0.34 + 0.56 + 0.10 sums to 1.0000000000000002 in f64.
        let policy =
            WireFaultPolicy { drop: 0.34, duplicate: 0.56, reorder: 0.10, ..Default::default() };
        assert_eq!(spec_with(|s| s.rx = policy).validate(), Ok(()));
        let policy = WireFaultPolicy { reorder: 0.11, ..policy };
        assert!(spec_with(|s| s.rx = policy).validate().is_err());
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
