//! Queue disciplines.
//!
//! A [`Discipline`] decides which packets a congested output port stores,
//! drops, and serves next. Disciplines are composable: the PELS router
//! discipline of the paper (Fig. 4 left) is
//! `Wrr{ StrictPriority[green, yellow, red], DropTail }` — weighted
//! round-robin between the video queue and the Internet queue, with strict
//! priority among the three color sub-queues.
//!
//! Disciplines never touch packet payloads: they order, store, and drop
//! [`QEntry`] descriptors (arena slot + the two header fields scheduling
//! needs), while the payload stays parked in the event queue's packet
//! arena. This keeps every queue operation a 16-byte move regardless of
//! packet size — see [`crate::event::PacketSlot`].

use crate::event::PacketSlot;
use crate::time::SimTime;
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;

/// A queued packet as the disciplines see it: the arena slot of the payload
/// plus the header fields classification and byte accounting need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QEntry {
    /// Arena slot of the payload (opaque to disciplines).
    pub slot: PacketSlot,
    /// Size on the wire, bytes.
    pub size_bytes: u32,
    /// Priority class (0 = green, 1 = yellow, 2 = red, 3 = best-effort).
    pub class: u8,
}

impl QEntry {
    /// Creates an entry; mostly useful in tests — ports build entries from
    /// real packets as they stash them into the arena.
    pub fn new(slot: PacketSlot, size_bytes: u32, class: u8) -> Self {
        QEntry { slot, size_bytes, class }
    }
}

/// Capacity limit of a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueLimit {
    /// At most this many packets.
    Packets(usize),
    /// At most this many bytes.
    Bytes(u64),
}

impl QueueLimit {
    fn admits(&self, cur_pkts: usize, cur_bytes: u64, incoming: &QEntry) -> bool {
        match *self {
            QueueLimit::Packets(n) => cur_pkts < n,
            QueueLimit::Bytes(b) => cur_bytes + incoming.size_bytes as u64 <= b,
        }
    }
}

/// A buffer-management and scheduling policy for one output port.
///
/// `enqueue` pushes dropped entries (the incoming one, or victims evicted to
/// make room) into `dropped` so callers can account for them (and release
/// the parked payloads) without per-call allocation.
pub trait Discipline: fmt::Debug + Send {
    /// Offers `entry` to the queue at time `now`.
    fn enqueue(&mut self, entry: QEntry, now: SimTime, dropped: &mut Vec<QEntry>);

    /// Removes and returns the next entry to transmit.
    fn dequeue(&mut self, now: SimTime) -> Option<QEntry>;

    /// Size in bytes of the entry `dequeue` would return, if any.
    fn peek_size(&self) -> Option<u32>;

    /// Number of queued packets.
    fn len_packets(&self) -> usize;

    /// Number of queued bytes.
    fn len_bytes(&self) -> u64;

    /// Whether the queue holds no packets.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// Upcast for inspecting concrete disciplines inside composites
    /// (e.g. reading per-band backlogs through a `Box<dyn Discipline>`).
    fn as_any(&self) -> &dyn Any;
}

/// Plain FIFO with tail drop.
///
/// # Examples
///
/// ```
/// use pels_netsim::disc::{Discipline, DropTail, QEntry, QueueLimit};
/// use pels_netsim::event::PacketSlot;
/// use pels_netsim::time::SimTime;
///
/// let mut q = DropTail::new(QueueLimit::Packets(1));
/// let mut dropped = Vec::new();
/// let entry = |i| QEntry::new(PacketSlot(i), 500, 0);
/// q.enqueue(entry(0), SimTime::ZERO, &mut dropped);
/// q.enqueue(entry(1), SimTime::ZERO, &mut dropped); // over limit -> dropped
/// assert_eq!(q.len_packets(), 1);
/// assert_eq!(dropped.len(), 1);
/// ```
#[derive(Debug)]
pub struct DropTail {
    queue: VecDeque<QEntry>,
    bytes: u64,
    limit: QueueLimit,
}

impl DropTail {
    /// Creates a FIFO with the given capacity limit.
    pub fn new(limit: QueueLimit) -> Self {
        DropTail { queue: VecDeque::new(), bytes: 0, limit }
    }
}

impl Discipline for DropTail {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn enqueue(&mut self, entry: QEntry, _now: SimTime, dropped: &mut Vec<QEntry>) {
        if self.limit.admits(self.queue.len(), self.bytes, &entry) {
            self.bytes += entry.size_bytes as u64;
            self.queue.push_back(entry);
        } else {
            dropped.push(entry);
        }
    }

    fn dequeue(&mut self, _now: SimTime) -> Option<QEntry> {
        let entry = self.queue.pop_front()?;
        self.bytes -= entry.size_bytes as u64;
        Some(entry)
    }

    fn peek_size(&self) -> Option<u32> {
        self.queue.front().map(|e| e.size_bytes)
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Strict priority over `N` bands, classified by [`QEntry::class`].
///
/// Band `i` serves packets with `class == i`; classes `>= N` map to the last
/// band. Lower band index = higher priority: a packet in band 1 is never
/// served while band 0 is non-empty. This is exactly the service order the
/// paper requires inside the PELS queue ("network routers must use queuing
/// mechanisms that do not allow low-priority packets to pass until all
/// high-priority packets are fully transmitted", Section 4.1).
#[derive(Debug)]
pub struct StrictPriority {
    bands: Vec<Box<dyn Discipline>>,
}

impl StrictPriority {
    /// Creates a strict-priority scheduler over the given bands.
    ///
    /// # Panics
    ///
    /// Panics if `bands` is empty.
    pub fn new(bands: Vec<Box<dyn Discipline>>) -> Self {
        assert!(!bands.is_empty(), "strict priority needs at least one band");
        StrictPriority { bands }
    }

    /// Convenience: `n` DropTail bands with identical per-band limits.
    pub fn drop_tail_bands(n: usize, limit: QueueLimit) -> Self {
        Self::new((0..n).map(|_| Box::new(DropTail::new(limit)) as Box<dyn Discipline>).collect())
    }

    fn band_for(&self, entry: &QEntry) -> usize {
        (entry.class as usize).min(self.bands.len() - 1)
    }

    /// Queued packets in band `i`.
    pub fn band_len_packets(&self, i: usize) -> usize {
        self.bands[i].len_packets()
    }
}

impl Discipline for StrictPriority {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn enqueue(&mut self, entry: QEntry, now: SimTime, dropped: &mut Vec<QEntry>) {
        let band = self.band_for(&entry);
        self.bands[band].enqueue(entry, now, dropped);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QEntry> {
        for band in &mut self.bands {
            if let Some(entry) = band.dequeue(now) {
                return Some(entry);
            }
        }
        None
    }

    fn peek_size(&self) -> Option<u32> {
        self.bands.iter().find_map(|b| b.peek_size())
    }

    fn len_packets(&self) -> usize {
        self.bands.iter().map(|b| b.len_packets()).sum()
    }

    fn len_bytes(&self) -> u64 {
        self.bands.iter().map(|b| b.len_bytes()).sum()
    }
}

/// One child queue of a [`Wrr`] scheduler.
#[derive(Debug)]
struct WrrChild {
    disc: Box<dyn Discipline>,
    weight: u32,
    deficit: u64,
}

/// Weighted round-robin (deficit round-robin) over child disciplines.
///
/// Each child `i` receives a share `weight_i / sum(weights)` of the link in
/// bytes, enforced with deficit counters (Shreedhar & Varghese's DRR, the
/// byte-accurate realization of WRR the paper's Fig. 4 calls for).
/// Classification is by a caller-supplied function from [`QEntry::class`] to
/// child index.
#[derive(Debug)]
pub struct Wrr {
    children: Vec<WrrChild>,
    classify: fn(&QEntry) -> usize,
    quantum: u64,
    current: usize,
    /// Whether the current child has already received its quantum this visit.
    granted: bool,
    /// Scheduler turns: quantum grants handed to a non-empty child. One turn
    /// may serve many packets (while the deficit lasts); an idle scheduler
    /// takes no turns. Monotone, scraped by telemetry consumers.
    pub turns: u64,
}

impl Wrr {
    /// Creates a WRR scheduler.
    ///
    /// `classify` maps an entry to a child index (values out of range are
    /// clamped to the last child). `quantum` is the base byte quantum per
    /// round for a weight-1 child; use at least the MTU so every visit can
    /// serve a packet.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty, any weight is zero, or `quantum == 0`.
    pub fn new(
        children: Vec<(u32, Box<dyn Discipline>)>,
        classify: fn(&QEntry) -> usize,
        quantum: u64,
    ) -> Self {
        assert!(!children.is_empty(), "wrr needs at least one child");
        assert!(quantum > 0, "wrr quantum must be positive");
        let children: Vec<WrrChild> = children
            .into_iter()
            .map(|(weight, disc)| {
                assert!(weight > 0, "wrr weights must be positive");
                WrrChild { disc, weight, deficit: 0 }
            })
            .collect();
        Wrr { children, classify, quantum, current: 0, granted: false, turns: 0 }
    }

    fn child_for(&self, entry: &QEntry) -> usize {
        ((self.classify)(entry)).min(self.children.len() - 1)
    }

    /// Queued packets in child `i`.
    pub fn child_len_packets(&self, i: usize) -> usize {
        self.children[i].disc.len_packets()
    }

    /// Access to child `i`'s discipline for inspection.
    pub fn child(&self, i: usize) -> &dyn Discipline {
        self.children[i].disc.as_ref()
    }
}

impl Discipline for Wrr {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn enqueue(&mut self, entry: QEntry, now: SimTime, dropped: &mut Vec<QEntry>) {
        let child = self.child_for(&entry);
        self.children[child].disc.enqueue(entry, now, dropped);
    }

    fn dequeue(&mut self, now: SimTime) -> Option<QEntry> {
        if self.is_empty() {
            return None;
        }
        // Deficit round robin: each *visit* to a child grants it one quantum
        // (scaled by weight); the child then serves packets while its deficit
        // lasts. An empty child forfeits its deficit. Deficits of non-empty
        // children persist across rounds so packets larger than the quantum
        // are eventually served.
        loop {
            let n = self.children.len();
            let child = &mut self.children[self.current];
            match child.disc.peek_size() {
                None => {
                    child.deficit = 0;
                    self.current = (self.current + 1) % n;
                    self.granted = false;
                }
                Some(size) => {
                    if !self.granted {
                        child.deficit += self.quantum * child.weight as u64;
                        self.granted = true;
                        self.turns += 1;
                    }
                    if child.deficit >= size as u64 {
                        child.deficit -= size as u64;
                        return child.disc.dequeue(now);
                    }
                    // Deficit exhausted for this visit: move on.
                    self.current = (self.current + 1) % n;
                    self.granted = false;
                }
            }
        }
    }

    fn peek_size(&self) -> Option<u32> {
        // Approximation: the head of the current child (or the first
        // non-empty child). Only used by outer schedulers for sizing.
        self.children
            .iter()
            .cycle()
            .skip(self.current)
            .take(self.children.len())
            .find_map(|c| c.disc.peek_size())
    }

    fn len_packets(&self) -> usize {
        self.children.iter().map(|c| c.disc.len_packets()).sum()
    }

    fn len_bytes(&self) -> u64 {
        self.children.iter().map(|c| c.disc.len_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test entries use the slot as a per-packet identity (the arena is not
    /// involved: slots are opaque to disciplines).
    fn ent(seq: u32, class: u8, size: u32) -> QEntry {
        QEntry::new(PacketSlot(seq), size, class)
    }

    #[test]
    fn drop_tail_fifo_order() {
        let mut q = DropTail::new(QueueLimit::Packets(10));
        let mut d = Vec::new();
        for seq in 0..5u32 {
            q.enqueue(ent(seq, 0, 100), SimTime::ZERO, &mut d);
        }
        assert_eq!(q.len_bytes(), 500);
        for expect in 0..5u32 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().slot, PacketSlot(expect));
        }
        assert!(q.dequeue(SimTime::ZERO).is_none());
        assert!(d.is_empty());
    }

    #[test]
    fn drop_tail_byte_limit() {
        let mut q = DropTail::new(QueueLimit::Bytes(1000));
        let mut d = Vec::new();
        q.enqueue(ent(0, 0, 600), SimTime::ZERO, &mut d);
        q.enqueue(ent(1, 0, 600), SimTime::ZERO, &mut d); // 1200 > 1000 -> drop
        q.enqueue(ent(2, 0, 400), SimTime::ZERO, &mut d); // exactly 1000 -> fits
        assert_eq!(q.len_packets(), 2);
        assert_eq!(q.len_bytes(), 1000);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn strict_priority_never_serves_lower_band_first() {
        let mut sp = StrictPriority::drop_tail_bands(3, QueueLimit::Packets(100));
        let mut d = Vec::new();
        sp.enqueue(ent(0, 2, 100), SimTime::ZERO, &mut d); // red
        sp.enqueue(ent(1, 1, 100), SimTime::ZERO, &mut d); // yellow
        sp.enqueue(ent(2, 0, 100), SimTime::ZERO, &mut d); // green
        sp.enqueue(ent(3, 0, 100), SimTime::ZERO, &mut d); // green
        let order: Vec<u8> =
            std::iter::from_fn(|| sp.dequeue(SimTime::ZERO)).map(|e| e.class).collect();
        assert_eq!(order, vec![0, 0, 1, 2]);
    }

    #[test]
    fn strict_priority_clamps_out_of_range_class() {
        let mut sp = StrictPriority::drop_tail_bands(3, QueueLimit::Packets(10));
        let mut d = Vec::new();
        sp.enqueue(ent(0, 250, 100), SimTime::ZERO, &mut d);
        assert_eq!(sp.band_len_packets(2), 1);
    }

    #[test]
    fn wrr_splits_bytes_by_weight() {
        // Two children with weights 1:1; equal-size packets must alternate
        // in the long run (50/50 byte split).
        let classify = |e: &QEntry| if e.class < 3 { 0 } else { 1 };
        let mut wrr = Wrr::new(
            vec![
                (1, Box::new(DropTail::new(QueueLimit::Packets(1000))) as Box<dyn Discipline>),
                (1, Box::new(DropTail::new(QueueLimit::Packets(1000))) as Box<dyn Discipline>),
            ],
            classify,
            500,
        );
        let mut d = Vec::new();
        for i in 0..100u32 {
            wrr.enqueue(ent(2 * i, 0, 500), SimTime::ZERO, &mut d);
            wrr.enqueue(ent(2 * i + 1, 3, 500), SimTime::ZERO, &mut d);
        }
        let mut counts = [0u32; 2];
        for _ in 0..100 {
            let e = wrr.dequeue(SimTime::ZERO).unwrap();
            counts[if e.class < 3 { 0 } else { 1 }] += 1;
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
        // 500 B packets against a 500 B weight-1 quantum: every dequeue is
        // its own scheduler turn.
        assert_eq!(wrr.turns, 100);
    }

    #[test]
    fn wrr_weight_ratio_three_to_one() {
        let classify = |e: &QEntry| if e.class < 3 { 0 } else { 1 };
        let mut wrr = Wrr::new(
            vec![
                (3, Box::new(DropTail::new(QueueLimit::Packets(1000))) as Box<dyn Discipline>),
                (1, Box::new(DropTail::new(QueueLimit::Packets(1000))) as Box<dyn Discipline>),
            ],
            classify,
            500,
        );
        let mut d = Vec::new();
        for i in 0..400u32 {
            wrr.enqueue(ent(2 * i, 0, 500), SimTime::ZERO, &mut d);
            wrr.enqueue(ent(2 * i + 1, 3, 500), SimTime::ZERO, &mut d);
        }
        let mut video = 0u32;
        for _ in 0..400 {
            if wrr.dequeue(SimTime::ZERO).unwrap().class < 3 {
                video += 1;
            }
        }
        // 3:1 split of 400 packets = 300 video.
        assert!((295..=305).contains(&video), "video share was {video}");
    }

    #[test]
    fn wrr_work_conserving_when_one_child_empty() {
        let classify = |e: &QEntry| if e.class < 3 { 0 } else { 1 };
        let mut wrr = Wrr::new(
            vec![
                (1, Box::new(DropTail::new(QueueLimit::Packets(10))) as Box<dyn Discipline>),
                (1, Box::new(DropTail::new(QueueLimit::Packets(10))) as Box<dyn Discipline>),
            ],
            classify,
            500,
        );
        let mut d = Vec::new();
        for i in 0..5u32 {
            wrr.enqueue(ent(i, 3, 500), SimTime::ZERO, &mut d);
        }
        // Only the Internet child has traffic; all 5 must come out.
        for _ in 0..5 {
            assert!(wrr.dequeue(SimTime::ZERO).is_some());
        }
        assert!(wrr.dequeue(SimTime::ZERO).is_none());
    }

    #[test]
    fn wrr_handles_packets_larger_than_quantum() {
        let classify = |_: &QEntry| 0usize;
        let mut wrr = Wrr::new(
            vec![(1, Box::new(DropTail::new(QueueLimit::Packets(10))) as Box<dyn Discipline>)],
            classify,
            100, // quantum smaller than the 1500-byte packet
        );
        let mut d = Vec::new();
        wrr.enqueue(ent(0, 0, 1500), SimTime::ZERO, &mut d);
        assert_eq!(wrr.dequeue(SimTime::ZERO).unwrap().size_bytes, 1500);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_entry() -> impl Strategy<Value = (u8, u32)> {
        (0u8..4, 40u32..1500)
    }

    proptest! {
        /// Conservation: every entry offered to a composite discipline is
        /// either queued, dequeued, or reported dropped — never lost.
        #[test]
        fn packets_are_conserved(pkts in proptest::collection::vec(arb_entry(), 1..300)) {
            let classify = |e: &QEntry| if e.class < 3 { 0 } else { 1 };
            let video = Box::new(StrictPriority::drop_tail_bands(3, QueueLimit::Packets(20)));
            let inet = Box::new(DropTail::new(QueueLimit::Packets(20)));
            let mut wrr = Wrr::new(vec![(1, video as _), (1, inet as _)], classify, 500);
            let mut dropped = Vec::new();
            let total = pkts.len();
            let mut dequeued = 0usize;
            for (i, &(class, size)) in pkts.iter().enumerate() {
                wrr.enqueue(QEntry::new(PacketSlot(i as u32), size, class),
                            SimTime::ZERO, &mut dropped);
                if i % 3 == 0 && wrr.dequeue(SimTime::ZERO).is_some() {
                    dequeued += 1;
                }
            }
            prop_assert_eq!(dequeued + dropped.len() + wrr.len_packets(), total);
        }

        /// Strict priority invariant: a dequeued entry's class is never
        /// higher-numbered than any class still waiting before the dequeue.
        #[test]
        fn strict_priority_invariant(pkts in proptest::collection::vec(arb_entry(), 1..200)) {
            let mut sp = StrictPriority::drop_tail_bands(4, QueueLimit::Packets(1000));
            let mut dropped = Vec::new();
            for (i, &(class, size)) in pkts.iter().enumerate() {
                sp.enqueue(QEntry::new(PacketSlot(i as u32), size, class),
                           SimTime::ZERO, &mut dropped);
            }
            let mut waiting = [0usize; 4];
            for &(class, _) in &pkts {
                waiting[class.min(3) as usize] += 1;
            }
            while let Some(e) = sp.dequeue(SimTime::ZERO) {
                let class = e.class.min(3) as usize;
                for (higher, &count) in waiting.iter().enumerate().take(class) {
                    prop_assert_eq!(count, 0,
                        "class {} dequeued while class {} still waiting", class, higher);
                }
                waiting[class] -= 1;
            }
        }

        /// Byte accounting matches entry contents at all times.
        #[test]
        fn byte_accounting(pkts in proptest::collection::vec(arb_entry(), 1..100)) {
            let mut q = DropTail::new(QueueLimit::Bytes(20_000));
            let mut dropped = Vec::new();
            let mut expected: u64 = 0;
            for (i, &(class, size)) in pkts.iter().enumerate() {
                let before = dropped.len();
                q.enqueue(QEntry::new(PacketSlot(i as u32), size, class),
                          SimTime::ZERO, &mut dropped);
                if dropped.len() == before {
                    expected += size as u64;
                }
                prop_assert_eq!(q.len_bytes(), expected);
            }
            while let Some(e) = q.dequeue(SimTime::ZERO) {
                expected -= e.size_bytes as u64;
                prop_assert_eq!(q.len_bytes(), expected);
            }
            prop_assert_eq!(q.len_bytes(), 0);
        }
    }
}
