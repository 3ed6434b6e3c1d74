//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)`: the sequence number comes from
//! a monotone counter at scheduling time (or ahead of it, see "Reserved
//! sequence numbers"), so events scheduled for the same instant fire in
//! FIFO order. This makes every simulation run
//! bit-reproducible for a fixed seed — a hard invariant of this workspace
//! (see the property tests in this module and in `tests/`).
//!
//! # Storage layout
//!
//! The queue stores events in two tiers:
//!
//! * **Inline entries.** Pending events are a compact `Ev` (16 bytes)
//!   paired with a `u128` ordering key — 32 bytes total, stored *by value*
//!   in the heap and the sorted run. Timers and tx-completes carry their
//!   whole payload inline; nothing is allocated for them.
//! * **Arenas.** Packet payloads (96 bytes) live in a free-list slab
//!   and ride through the queue as a [`PacketSlot`] handle; the rare
//!   fault actions live in a second slab. Heap sifts therefore move 32
//!   bytes per swap instead of a whole packet. A packet is copied twice
//!   per hop: into the arena when [`crate::port::Port::send`] stashes it,
//!   and out again when the arrival at the next agent is dispatched (the
//!   agent gets the packet by value). In between — queued in a discipline,
//!   serializing, propagating — only its [`PacketSlot`] moves.
//!
//! # Reserved sequence numbers
//!
//! A caller may take a sequence number now (`reserve_seq`) and schedule an
//! event under it later (`schedule_ev_seq`), or never. An event scheduled
//! late fires exactly where it would have fired had it been scheduled at
//! reservation time, because its key is the same; an event never
//! scheduled just leaves a gap, and a gap changes no comparison between
//! the keys that remain. The queue also remembers the key of the last
//! event popped, so "has the key I reserved fired yet?" (`has_fired`) has
//! an answer without the event existing. Output ports are the user: the
//! completion of a transmission that nothing queues behind is reserved,
//! compared against, and never scheduled ([`crate::port`]), while every
//! surviving event keeps the `(time, seq)` key — and so the place in the
//! pop order, same-nanosecond ties included — that it had when each
//! completion was an event.
//!
//! # Batched draining
//!
//! Popping exclusively from a binary heap pays a cache-cold sift-down per
//! event. Instead the queue drains the heap `RUN_BATCH` entries at a time
//! into a *sorted run* (descending, so the next event is an `O(1)`
//! `Vec::pop`). The run is fenced by `run_ceiling`: every key in the heap
//! is `>= run_ceiling` and every key in the run is `< run_ceiling`, so a
//! newly scheduled event lands in the run (sorted insert into at most
//! `RUN_BATCH` cache-hot entries) exactly when it must fire before the
//! fence, and in the heap otherwise. Keys are unique, which makes the fence
//! exact: total pop order is identical to a pure heap, bit for bit.
//!
//! # The cross-shard lane
//!
//! A shard of a [`crate::shard::ShardedSimulator`] receives the packets
//! other shards sent it as one batch per window barrier, already sorted in
//! merge order. Pushing such a batch through the heap — a stash, a push and
//! a cache-cold sift per packet, all undone at most a window later — buys
//! nothing, because the batch *is* a queue: `install_lane` numbers its
//! entries with consecutive sequence numbers, front to back, and keeps the
//! `Vec` as it came; a pop takes whichever of the lane's head and the run's
//! tail has the smaller key, and a popped lane entry is stashed in the arena
//! and leaves as the ordinary `Ev::Arrival`, so nothing downstream can
//! tell where an arrival waited.
//!
//! *Equal keys, equal order.* The numbers an installed batch gets are the
//! ones `schedule` would have handed out had each arrival been scheduled at
//! the barrier, in batch order, so every entry holds the `(time, seq)` key
//! it would hold in the heap. Sorted by time and numbered in that order, the
//! batch ascends by key, so its head is its minimum; the run's tail is the
//! minimum of everything else; keys are unique; the smaller of the two is
//! the global minimum. Pop order is a function of the keys alone, which is
//! why it is identical, ties included, to scheduling the batch.
//!
//! *Leftovers go through the heap.* A window can end with lane entries
//! unfired (a cross link slower than the lookahead, or a `run_until` that
//! stops mid-window). The next batch may interleave with them, and two
//! sorted sequences are not one: `take_lane` schedules the leftovers into
//! the heap under the keys they already hold — `schedule_ev_seq`, as for
//! any reserved number — and hands back the emptied buffer for the next
//! batch to arrive in.

use crate::faults::FaultAction;
use crate::packet::{AgentId, Packet};
use crate::shard::CrossEvent;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation event, dispatched to the agent it addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A packet finished propagating and arrives at `dst`.
    PacketArrival {
        /// Receiving agent.
        dst: AgentId,
        /// The arriving packet.
        packet: Packet,
    },
    /// An output port of `agent` finished serializing a packet.
    TxComplete {
        /// Owning agent.
        agent: AgentId,
        /// Index of the port within the agent.
        port: usize,
    },
    /// A timer set by `agent` fired.
    Timer {
        /// Owning agent.
        agent: AgentId,
        /// Opaque token chosen by the agent when scheduling.
        token: u64,
    },
    /// A scripted fault fires (see [`crate::faults`]). Agent-targeted
    /// actions dispatch to [`crate::sim::Agent::on_fault`]; global control
    /// policy actions are absorbed by the simulator itself.
    Fault {
        /// Targeted agent ([`crate::faults::GLOBAL`] for policy actions).
        agent: AgentId,
        /// The fault to apply.
        action: FaultAction,
    },
}

impl Event {
    /// The agent this event is dispatched to.
    pub fn target(&self) -> AgentId {
        match self {
            Event::PacketArrival { dst, .. } => *dst,
            Event::TxComplete { agent, .. } => *agent,
            Event::Timer { agent, .. } => *agent,
            Event::Fault { agent, .. } => *agent,
        }
    }
}

/// Handle to a packet parked in the queue's packet arena.
///
/// Slots are opaque to queue disciplines: a discipline orders and drops
/// [`crate::disc::QEntry`] values without ever dereferencing the payload.
/// Only the simulator core (via [`crate::sim::Context`]) stashes and takes
/// packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketSlot(pub u32);

/// A free-list slab: steady-state insert/take never allocates.
#[derive(Debug)]
struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(value);
                i
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("slab slot overflow");
                self.slots.push(Some(value));
                i
            }
        }
    }

    fn take(&mut self, i: u32) -> T {
        let v = self.slots[i as usize].take().expect("empty slab slot");
        self.free.push(i);
        v
    }

    fn get(&self, i: u32) -> &T {
        self.slots[i as usize].as_ref().expect("empty slab slot")
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// Compact in-queue event: 16 bytes, stored by value in heap entries.
/// Payloads too large to inline (packets, fault actions) are referenced by
/// slab index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ev {
    /// A packet (parked at `slot`) arrives at `dst`.
    Arrival { dst: AgentId, slot: PacketSlot },
    /// Port `port` of `agent` finished serializing.
    Tx { agent: AgentId, port: u32 },
    /// A timer of `agent` fired.
    Timer { agent: AgentId, token: u64 },
    /// Fault action parked at index `idx` fires at `agent`.
    Fault { agent: AgentId, idx: u32 },
}

/// A pending event: ordering key plus inline compact event. 32 bytes; heap
/// sifts and run shifts move entries by value. The `(time, seq)`
/// lexicographic order packs into one `u128` comparison (`time` in the high
/// 64 bits, `seq` below it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u128,
    ev: Ev,
}

impl Entry {
    fn time(&self) -> SimTime {
        SimTime::from_nanos((self.key >> 64) as u64)
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event.
        other.key.cmp(&self.key)
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// How many entries a refill drains from the heap into the sorted run.
/// Small enough that the run (and sorted inserts into it) stay L1-resident,
/// large enough to amortize the drain loop.
const RUN_BATCH: usize = 128;

/// Above every key an event can hold (sequence numbers stop short of
/// `u64::MAX`): what an empty run or lane compares as.
const NO_KEY: u128 = u128::MAX;

/// Priority queue of pending events.
///
/// # Examples
///
/// ```
/// use pels_netsim::event::{Event, EventQueue};
/// use pels_netsim::packet::AgentId;
/// use pels_netsim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(20), Event::Timer { agent: AgentId(0), token: 2 });
/// q.schedule(SimTime::from_nanos(10), Event::Timer { agent: AgentId(0), token: 1 });
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(t, SimTime::from_nanos(10));
/// assert!(matches!(ev, Event::Timer { token: 1, .. }));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Drained batch, sorted descending by key: the next event to fire is
    /// `run.last()`. Invariant: when non-empty, every key here is
    /// `< run_ceiling` and every heap key is `>= run_ceiling`.
    run: Vec<Entry>,
    run_ceiling: u128,
    packets: Slab<Packet>,
    fault_slab: Slab<FaultAction>,
    next_seq: u64,
    /// One past the key of the last event popped: every key below it has
    /// fired, every key at or above it has not. Zero until the first pop.
    fired_fence: u128,
    /// The last barrier's cross-shard arrivals, ascending by `(time, seq)`
    /// from `lane_head` on; entries before it have fired.
    lane: Vec<CrossEvent>,
    lane_head: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(time: SimTime, seq: u64) -> u128 {
        (u128::from(time.as_nanos()) << 64) | u128::from(seq)
    }

    /// Parks a packet payload in the arena and returns its slot.
    pub fn stash_packet(&mut self, packet: Packet) -> PacketSlot {
        PacketSlot(self.packets.insert(packet))
    }

    /// Removes and returns the packet parked at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant (double-take or a forged slot).
    pub fn take_packet(&mut self, slot: PacketSlot) -> Packet {
        self.packets.take(slot.0)
    }

    /// The packet parked at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn packet(&self, slot: PacketSlot) -> &Packet {
        self.packets.get(slot.0)
    }

    /// Number of packets currently parked in the arena (queued in
    /// disciplines, serializing, or in flight): what the tests check a pop
    /// releases.
    #[cfg(test)]
    fn live_packets(&self) -> usize {
        self.packets.len()
    }

    /// Schedules `event` to fire at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` packets or faults are pending at once.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let ev = match event {
            Event::PacketArrival { dst, packet } => {
                Ev::Arrival { dst, slot: self.stash_packet(packet) }
            }
            Event::TxComplete { agent, port } => {
                Ev::Tx { agent, port: u32::try_from(port).expect("port index overflow") }
            }
            Event::Timer { agent, token } => Ev::Timer { agent, token },
            Event::Fault { agent, action } => {
                Ev::Fault { agent, idx: self.fault_slab.insert(action) }
            }
        };
        self.schedule_ev(time, ev);
    }

    /// Schedules a compact event (the allocation-free hot path).
    pub(crate) fn schedule_ev(&mut self, time: SimTime, ev: Ev) {
        let seq = self.reserve_seq();
        self.schedule_ev_seq(time, seq, ev);
    }

    /// Takes the next sequence number without scheduling anything. The
    /// caller may later hand it to [`EventQueue::schedule_ev_seq`], or never:
    /// a gap in the sequence changes no comparison between the keys that
    /// remain (see the module docs, "Reserved sequence numbers").
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Whether the key `(time, seq)` lies at or before the last event
    /// popped — during a dispatch, at or before the event being dispatched.
    /// An event scheduled under that key would have fired by now.
    pub(crate) fn has_fired(&self, time: SimTime, seq: u64) -> bool {
        Self::key(time, seq) < self.fired_fence
    }

    /// Schedules a compact event under a sequence number taken earlier with
    /// [`EventQueue::reserve_seq`]: it fires exactly where it would have had
    /// it been scheduled at reservation time. Each reserved number may be
    /// used once, and only while its key has not fired.
    pub(crate) fn schedule_ev_seq(&mut self, time: SimTime, seq: u64, ev: Ev) {
        debug_assert!(seq < self.next_seq, "sequence number {seq} was never reserved");
        debug_assert!(!self.has_fired(time, seq), "scheduling into the past: {time:?} #{seq}");
        let entry = Entry { key: Self::key(time, seq), ev };
        if !self.run.is_empty() && entry.key < self.run_ceiling {
            // Fires before the fence: sorted insert into the hot run.
            // Keys are unique so the position is unambiguous.
            let at = self.run.partition_point(|e| e.key > entry.key);
            self.run.insert(at, entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Takes the fault action parked at `idx`.
    pub(crate) fn take_fault(&mut self, idx: u32) -> FaultAction {
        self.fault_slab.take(idx)
    }

    fn refill(&mut self) {
        debug_assert!(self.run.is_empty());
        for _ in 0..RUN_BATCH {
            match self.heap.pop() {
                Some(e) => self.run.push(e),
                None => break,
            }
        }
        // Heap pops arrive in ascending key order; the run pops from the
        // back, so store it descending.
        self.run.reverse();
        // Keys are unique, so max(run) + 1 separates the run from the heap
        // exactly: everything still in the heap compares >= the fence.
        self.run_ceiling = match self.run.first() {
            Some(e) => e.key + 1,
            None => 0,
        };
        debug_assert!(self.heap.peek().is_none_or(|e| e.key >= self.run_ceiling));
    }

    /// Removes and returns the earliest compact event, or `None` when empty.
    pub(crate) fn pop_entry(&mut self) -> Option<(SimTime, Ev)> {
        self.pop_below(NO_KEY)
    }

    /// Like [`EventQueue::pop_entry`], but only yields events at or before
    /// `end` (strictly before when `inclusive` is false). The bound check
    /// happens *before* removal, so rejected events stay queued.
    pub(crate) fn pop_entry_before(
        &mut self,
        end: SimTime,
        inclusive: bool,
    ) -> Option<(SimTime, Ev)> {
        let end = u128::from(end.as_nanos()) + u128::from(inclusive);
        self.pop_below(end << 64)
    }

    /// Pops the earliest event if its key is below `fence`: the smaller of
    /// the run's tail and the lane's head.
    fn pop_below(&mut self, fence: u128) -> Option<(SimTime, Ev)> {
        if self.run.is_empty() {
            self.refill();
        }
        let run = self.run.last().map_or(NO_KEY, |e| e.key);
        let lane = self.lane.get(self.lane_head).map_or(NO_KEY, |e| Self::key(e.time, e.seq));
        if run.min(lane) >= fence {
            return None;
        }
        if run < lane {
            self.run.pop().map(|e| self.fire(e))
        } else {
            Some(self.pop_lane(lane))
        }
    }

    /// Fires the lane's head (key `key`): the packet moves into the arena
    /// and leaves as the arrival it would have been in the heap.
    fn pop_lane(&mut self, key: u128) -> (SimTime, Ev) {
        let head = &self.lane[self.lane_head];
        let (dst, packet) = (head.dst, head.packet.clone());
        self.lane_head += 1;
        let ev = Ev::Arrival { dst, slot: self.stash_packet(packet) };
        self.fire(Entry { key, ev })
    }

    /// Marks a popped entry as fired and unpacks it.
    fn fire(&mut self, e: Entry) -> (SimTime, Ev) {
        self.fired_fence = e.key + 1;
        (e.time(), e.ev)
    }

    /// Empties the lane and returns its buffer (capacity kept) with the
    /// number of arrivals that had not fired: those are scheduled through
    /// the heap under the keys they hold (module docs, "The cross-shard
    /// lane").
    pub(crate) fn take_lane(&mut self) -> (Vec<CrossEvent>, usize) {
        let mut lane = std::mem::take(&mut self.lane);
        let head = std::mem::take(&mut self.lane_head);
        let leftovers = lane.len() - head;
        for e in lane.drain(..).skip(head) {
            let slot = self.stash_packet(e.packet);
            self.schedule_ev_seq(e.time, e.seq, Ev::Arrival { dst: e.dst, slot });
        }
        (lane, leftovers)
    }

    /// Makes `batch` — sorted by fire time, ties in the order they are to
    /// fire — the lane: each entry's `seq` is overwritten with the next
    /// sequence number, so it fires exactly where `schedule` at this moment
    /// would have put it. The previous lane must have been taken
    /// ([`EventQueue::take_lane`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch begins at or before the last event popped.
    pub(crate) fn install_lane(&mut self, mut batch: Vec<CrossEvent>) {
        debug_assert_eq!(self.lane.len(), self.lane_head, "the previous lane was not taken");
        self.lane_head = 0;
        for e in &mut batch {
            e.seq = self.reserve_seq();
        }
        debug_assert!(batch.windows(2).all(|w| w[0].time <= w[1].time), "lane batch not sorted");
        // The head is the batch's smallest key: one check covers them all.
        if let Some(head) = batch.first() {
            assert!(
                !self.has_fired(head.time, head.seq),
                "cross-shard arrival at {:?} lands in the past",
                head.time
            );
        }
        self.lane = batch;
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let (time, ev) = self.pop_entry()?;
        Some((time, self.unpack(ev)))
    }

    /// Turns a popped compact event back into an [`Event`], taking its
    /// payload out of the arenas.
    fn unpack(&mut self, ev: Ev) -> Event {
        match ev {
            Ev::Arrival { dst, slot } => {
                Event::PacketArrival { dst, packet: self.take_packet(slot) }
            }
            Ev::Tx { agent, port } => Event::TxComplete { agent, port: port as usize },
            Ev::Timer { agent, token } => Event::Timer { agent, token },
            Ev::Fault { agent, idx } => Event::Fault { agent, action: self.take_fault(idx) },
        }
    }

    /// Time of the earliest pending event, if any: what the tests check
    /// the lane and the heap agree on.
    #[cfg(test)]
    fn peek_time(&self) -> Option<SimTime> {
        let queued = match self.run.last() {
            Some(e) => Some(e.time()),
            None => self.heap.peek().map(Entry::time),
        };
        let lane = self.lane.get(self.lane_head).map(|e| e.time);
        // `None` sorts first, so `min` alone would lose the other side.
        queued.into_iter().chain(lane).min()
    }

    /// Number of pending events, the lane's unfired arrivals included.
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len() + (self.lane.len() - self.lane_head)
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> Event {
        Event::Timer { agent: AgentId(0), token }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, tok) in [(30u64, 3u64), (10, 1), (20, 2)] {
            q.schedule(SimTime::from_nanos(t), timer(tok));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for tok in 0..100u64 {
            q.schedule(t, timer(tok));
        }
        for expect in 0..100u64 {
            let (pt, ev) = q.pop().unwrap();
            assert_eq!(pt, t);
            assert!(matches!(ev, Event::Timer { token, .. } if token == expect));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn event_target() {
        assert_eq!(timer(0).target(), AgentId(0));
        let ev = Event::TxComplete { agent: AgentId(7), port: 1 };
        assert_eq!(ev.target(), AgentId(7));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(9), timer(0));
        q.schedule(SimTime::from_nanos(4), timer(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(4)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn packet_payload_round_trips_through_arena() {
        use crate::packet::{FlowId, Packet};
        let mut q = EventQueue::new();
        let pkt = Packet::data(FlowId(3), AgentId(0), AgentId(1), 500).with_seq(9);
        q.schedule(SimTime::from_nanos(1), Event::PacketArrival { dst: AgentId(1), packet: pkt });
        assert_eq!(q.live_packets(), 1);
        let (_, ev) = q.pop().unwrap();
        match ev {
            Event::PacketArrival { dst, packet } => {
                assert_eq!(dst, AgentId(1));
                assert_eq!(packet.flow, FlowId(3));
                assert_eq!(packet.seq, 9);
            }
            other => panic!("expected arrival, got {other:?}"),
        }
        assert_eq!(q.live_packets(), 0, "pop must release the arena slot");
    }

    #[test]
    fn arena_slots_are_reused() {
        use crate::packet::{FlowId, Packet};
        let mut q = EventQueue::new();
        for round in 0..50u64 {
            let pkt = Packet::data(FlowId(0), AgentId(0), AgentId(1), 100).with_seq(round);
            let slot = q.stash_packet(pkt);
            assert!(slot.0 < 2, "free list must recycle slots, got {slot:?}");
            let p = q.take_packet(slot);
            assert_eq!(p.seq, round);
        }
    }

    #[test]
    fn scheduling_into_the_hot_run_preserves_order() {
        // Drain far enough to force a refill, then schedule events that land
        // inside the run's fence and check total order is maintained.
        let mut q = EventQueue::new();
        for tok in 0..300u64 {
            q.schedule(SimTime::from_nanos(10 * tok + 1000), timer(tok));
        }
        // First pop triggers a refill of RUN_BATCH entries.
        let (t0, _) = q.pop().unwrap();
        assert_eq!(t0, SimTime::from_nanos(1000));
        // These fire before the 128-entry fence (and before many run keys).
        q.schedule(SimTime::from_nanos(1005), timer(900));
        q.schedule(SimTime::from_nanos(1015), timer(901));
        let mut last = t0;
        let mut seen = Vec::new();
        while let Some((t, Event::Timer { token, .. })) = q.pop() {
            assert!(t >= last, "pop order regressed: {t:?} after {last:?}");
            last = t;
            seen.push(token);
        }
        assert_eq!(seen.len(), 301);
        assert_eq!(seen[0], 900, "inserted event must fire in key order");
    }
}

#[cfg(test)]
mod lane_tests {
    use super::*;
    use crate::packet::FlowId;

    /// An arrival at `at`, stamped `id` (carried as the sequence number).
    pub(super) fn arrival(at: u64, id: u64) -> CrossEvent {
        let packet = Packet::data(FlowId(0), AgentId(0), AgentId(1), 500).with_seq(id);
        // Install numbers the batch itself: whatever `seq` held is gone.
        CrossEvent {
            time: SimTime::from_nanos(at),
            src_shard: 0,
            seq: u64::MAX - id,
            dst: AgentId(1),
            packet,
        }
    }

    fn timer(token: u64) -> Event {
        Event::Timer { agent: AgentId(0), token }
    }

    /// What fired, as the stamp of an arrival or the token of a timer.
    fn label((t, ev): (SimTime, Event)) -> (u64, &'static str, u64) {
        match ev {
            Event::PacketArrival { packet, .. } => (t.as_nanos(), "pkt", packet.seq),
            Event::Timer { token, .. } => (t.as_nanos(), "timer", token),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lane_and_heap_merge_by_key_with_ties_in_scheduling_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(20), timer(0)); // seq 0
        q.install_lane(vec![arrival(10, 1), arrival(20, 2), arrival(20, 3), arrival(30, 4)]);
        q.schedule(SimTime::from_nanos(20), timer(5)); // after the batch: fires behind it
        q.schedule(SimTime::from_nanos(5), timer(6));
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(label).collect();
        assert_eq!(
            order,
            vec![
                (5, "timer", 6),
                (10, "pkt", 1),
                (20, "timer", 0),
                (20, "pkt", 2),
                (20, "pkt", 3),
                (20, "timer", 5),
                (30, "pkt", 4),
            ]
        );
        assert!(q.is_empty());
        assert_eq!(q.live_packets(), 0, "every lane packet passed through the arena and left");
    }

    #[test]
    fn the_lane_counts_as_pending_and_honours_the_pop_fence() {
        let mut q = EventQueue::new();
        q.install_lane(vec![arrival(10, 1), arrival(20, 2)]);
        assert_eq!((q.len(), q.is_empty()), (2, false));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        assert_eq!(q.live_packets(), 0, "a waiting lane entry holds no arena slot");
        let at = SimTime::from_nanos;
        assert!(q.pop_entry_before(at(10), false).is_none());
        assert!(q.pop_entry_before(at(10), true).is_some());
        assert!(q.has_fired(at(10), 0), "a lane pop moves the fired fence");
        assert!(!q.has_fired(at(20), 1));
        assert!(q.pop_entry_before(at(19), true).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn taking_the_lane_sends_leftovers_through_the_heap_under_their_keys() {
        let mut q = EventQueue::new();
        q.install_lane(vec![arrival(10, 1), arrival(40, 2), arrival(50, 3)]);
        assert_eq!(label(q.pop().unwrap()), (10, "pkt", 1));
        let (buffer, leftovers) = q.take_lane();
        assert_eq!((buffer.len(), leftovers), (0, 2));
        assert!(buffer.capacity() >= 3, "the buffer goes back to the exchange with its capacity");
        assert_eq!((q.len(), q.live_packets()), (2, 2));
        // The next batch interleaves with the leftovers; a tie goes to the
        // leftover, which was numbered a barrier earlier.
        q.install_lane(vec![arrival(30, 4), arrival(40, 5), arrival(60, 6)]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(label).collect();
        assert_eq!(
            order,
            vec![(30, "pkt", 4), (40, "pkt", 2), (40, "pkt", 5), (50, "pkt", 3), (60, "pkt", 6)]
        );
    }

    #[test]
    #[should_panic(expected = "lands in the past")]
    fn a_batch_that_begins_in_the_past_is_refused() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(50), timer(0));
        q.pop();
        q.install_lane(vec![arrival(40, 1)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popped timestamps are non-decreasing, and ties preserve insertion
        /// order, for any schedule sequence.
        #[test]
        fn pop_order_is_stable(times in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), Event::Timer { agent: AgentId(0), token: i as u64 });
            }
            let mut last: Option<(SimTime, u64)> = None;
            while let Some((t, Event::Timer { token, .. })) = q.pop() {
                if let Some((lt, ltok)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        // FIFO among equal timestamps implies insertion order,
                        // which for equal times means increasing token only if
                        // the earlier token had an equal timestamp.
                        prop_assert!(token > ltok || times[token as usize] != times[ltok as usize]);
                    }
                }
                last = Some((t, token));
            }
        }

        /// Interleaved schedule/pop keeps global order: popping must never
        /// yield a time earlier than one already popped, no matter how
        /// schedules interleave with refills of the sorted run.
        #[test]
        fn interleaved_schedule_pop_is_monotone(
            script in proptest::collection::vec((0u64..1000, 0u8..4), 1..400)
        ) {
            let mut q = EventQueue::new();
            let mut horizon = 0u64;
            let mut last_popped = SimTime::ZERO;
            for (token, (dt, pops)) in script.into_iter().enumerate() {
                // Times never go backwards relative to the last pop, mirroring
                // how the simulator only schedules at or after `now`.
                horizon = horizon.max(last_popped.as_nanos()) + dt;
                q.schedule(
                    SimTime::from_nanos(horizon),
                    Event::Timer { agent: AgentId(0), token: token as u64 },
                );
                for _ in 0..pops {
                    if let Some((t, _)) = q.pop() {
                        prop_assert!(t >= last_popped);
                        last_popped = t;
                    }
                }
            }
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= last_popped);
                last_popped = t;
            }
            prop_assert!(q.is_empty());
        }

        /// Reserving a sequence number and scheduling under it late — at any
        /// point before its key fires, interleaved with plain schedules and
        /// pops — yields the pop sequence of a queue in which every reserved
        /// event was scheduled at reservation time (minus the ones never
        /// scheduled at all), and `has_fired` tracks the last popped key.
        #[test]
        fn late_scheduling_under_a_reserved_seq_pops_like_eager(
            script in proptest::collection::vec((0u8..4, 0u64..40), 1..400)
        ) {
            let timer = |token: u64| Ev::Timer { agent: AgentId(0), token };
            let mut lazy = EventQueue::new();
            let mut eager = EventQueue::new();
            // The model's own sequence counter, and each token's number.
            let mut next_seq = 0u64;
            let mut seq_of = std::collections::HashMap::new();
            // Reserved and not yet scheduled: (time, seq, token).
            let mut pending: Vec<(SimTime, u64, u64)> = Vec::new();
            let mut never_scheduled: Vec<u64> = Vec::new();
            let mut popped: Vec<(SimTime, Ev)> = Vec::new();
            let mut last_key: Option<(SimTime, u64)> = None;
            for (token, (op, arg)) in script.into_iter().enumerate() {
                let token = token as u64;
                let now = last_key.map_or(SimTime::ZERO, |(t, _)| t);
                let at = SimTime::from_nanos(now.as_nanos() + arg);
                match op {
                    0 | 1 => {
                        seq_of.insert(token, next_seq);
                        if op == 0 {
                            lazy.schedule_ev(at, timer(token));
                        } else {
                            let seq = lazy.reserve_seq();
                            prop_assert_eq!(seq, next_seq);
                            pending.push((at, seq, token));
                        }
                        eager.schedule_ev(at, timer(token));
                        next_seq += 1;
                    }
                    2 if !pending.is_empty() => {
                        let (at, seq, token) = pending.swap_remove(arg as usize % pending.len());
                        let fired = last_key.is_some_and(|last| (at, seq) <= last);
                        prop_assert_eq!(lazy.has_fired(at, seq), fired);
                        if fired {
                            never_scheduled.push(token);
                        } else {
                            lazy.schedule_ev_seq(at, seq, timer(token));
                        }
                    }
                    2 => {}
                    _ => {
                        if let Some((t, ev)) = lazy.pop_entry() {
                            let Ev::Timer { token, .. } = ev else { unreachable!() };
                            last_key = Some((t, seq_of[&token]));
                            popped.push((t, ev));
                        }
                    }
                }
            }
            never_scheduled.extend(pending.iter().map(|p| p.2));
            while let Some(e) = lazy.pop_entry() {
                popped.push(e);
            }
            let reference: Vec<(SimTime, Ev)> = std::iter::from_fn(|| eager.pop_entry())
                .filter(|(_, ev)| {
                    !matches!(ev, Ev::Timer { token, .. } if never_scheduled.contains(token))
                })
                .collect();
            prop_assert_eq!(popped, reference);
        }

        /// The lane against its specification: any interleaving of plain
        /// schedules, reserved numbers scheduled late, installed batches,
        /// taken lanes and (bounded) pops yields the pop sequence of a queue
        /// in which every batch entry was `schedule`d, in batch order, at
        /// the moment its batch was installed — and the two queues agree on
        /// `len` and `peek_time` after every step.
        #[test]
        fn the_lane_pops_like_scheduling_the_batch(
            script in proptest::collection::vec(
                (0u8..7, 0u64..40, proptest::collection::vec(0u64..30, 0..6)),
                1..300,
            )
        ) {
            let timer = |token: u64| Ev::Timer { agent: AgentId(0), token };
            let mut lane = EventQueue::new();
            let mut plain = EventQueue::new();
            // Reserved on both queues and not yet scheduled: (time, seq, token).
            let mut pending: Vec<(SimTime, u64, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            for (token, (op, arg, offsets)) in script.into_iter().enumerate() {
                let token = token as u64;
                let at = SimTime::from_nanos(now.as_nanos() + arg);
                match op {
                    0 => {
                        lane.schedule_ev(at, timer(token));
                        plain.schedule_ev(at, timer(token));
                    }
                    1 => {
                        let seq = lane.reserve_seq();
                        prop_assert_eq!(plain.reserve_seq(), seq);
                        pending.push((at, seq, token));
                    }
                    2 if !pending.is_empty() => {
                        let (at, seq, token) = pending.swap_remove(arg as usize % pending.len());
                        prop_assert_eq!(lane.has_fired(at, seq), plain.has_fired(at, seq));
                        if !lane.has_fired(at, seq) {
                            lane.schedule_ev_seq(at, seq, timer(token));
                            plain.schedule_ev_seq(at, seq, timer(token));
                        }
                    }
                    3 => {
                        // A barrier: leftovers to the heap, then a batch
                        // sorted by time with plenty of ties.
                        let (buffer, _) = lane.take_lane();
                        prop_assert!(buffer.is_empty());
                        let mut times: Vec<u64> =
                            offsets.iter().map(|o| now.as_nanos() + o).collect();
                        times.sort_unstable();
                        let batch: Vec<CrossEvent> = times
                            .iter()
                            .enumerate()
                            .map(|(i, &t)| super::lane_tests::arrival(t, token * 8 + i as u64))
                            .collect();
                        for e in &batch {
                            let (dst, packet) = (e.dst, e.packet.clone());
                            plain.schedule(e.time, Event::PacketArrival { dst, packet });
                        }
                        lane.install_lane(batch);
                    }
                    4 => {
                        let before = lane.len();
                        let (_, leftovers) = lane.take_lane();
                        prop_assert!(leftovers <= before);
                        prop_assert_eq!(lane.len(), before, "a taken lane loses nothing");
                    }
                    _ => {
                        // 5: bounded pop, exclusive or inclusive; 6: plain pop.
                        let (a, b) = if op == 5 {
                            let inclusive = arg % 2 == 0;
                            (
                                lane.pop_entry_before(at, inclusive),
                                plain.pop_entry_before(at, inclusive),
                            )
                        } else {
                            (lane.pop_entry(), plain.pop_entry())
                        };
                        let a = a.map(|(t, ev)| (t, lane.unpack(ev)));
                        let b = b.map(|(t, ev)| (t, plain.unpack(ev)));
                        prop_assert_eq!(&a, &b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(lane.len(), plain.len());
                prop_assert_eq!(lane.peek_time(), plain.peek_time());
                prop_assert_eq!(lane.is_empty(), plain.is_empty());
            }
            let rest: Vec<_> = std::iter::from_fn(|| lane.pop()).collect();
            let reference: Vec<_> = std::iter::from_fn(|| plain.pop()).collect();
            prop_assert_eq!(rest, reference);
            prop_assert_eq!(lane.live_packets(), 0);
        }
    }
}
