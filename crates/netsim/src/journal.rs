//! An opt-in event journal: a bounded record of every dispatched event.
//!
//! Debugging a packet-level simulation usually starts with "what happened
//! around t = 12.37 s?". The journal answers that without instrumenting any
//! agent: the simulator's dispatch loop records each event (time, target,
//! kind, and packet metadata when present) into a bounded ring buffer with
//! query helpers.

use crate::event::Event;
use crate::faults::FaultAction;
use crate::packet::{AgentId, FlowId, PacketId};
use crate::time::SimTime;
use std::collections::VecDeque;

/// What kind of event a journal entry describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EntryKind {
    /// A packet arrived at the target agent.
    PacketArrival {
        /// The packet's globally unique id.
        id: PacketId,
        /// Flow the packet belongs to.
        flow: FlowId,
        /// Priority class.
        class: u8,
        /// Size in bytes.
        bytes: u32,
    },
    /// A port of the target agent finished serializing a packet while
    /// another was waiting behind it. A transmission nobody queued behind
    /// ends without an event ([`crate::port`]), so it leaves no entry; the
    /// arrival of its packet at the far end is the record of it.
    TxComplete {
        /// Port index within the agent.
        port: usize,
    },
    /// A timer fired at the target agent.
    Timer {
        /// The agent-chosen token.
        token: u64,
    },
    /// A scripted fault was applied at the target agent (or globally).
    Fault {
        /// The fault that fired.
        action: FaultAction,
    },
}

/// One recorded dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// When the event fired.
    pub time: SimTime,
    /// The agent it was dispatched to.
    pub target: AgentId,
    /// What it was.
    pub kind: EntryKind,
}

/// Bounded event journal (ring buffer).
///
/// # Examples
///
/// ```
/// use pels_netsim::journal::Journal;
///
/// let mut j = Journal::new(1000);
/// assert_eq!(j.len(), 0);
/// assert!(j.is_empty());
/// let _ = &mut j; // filled by Simulator when enabled
/// ```
#[derive(Debug)]
pub struct Journal {
    entries: VecDeque<Entry>,
    capacity: usize,
    /// Total events recorded (including those evicted from the ring).
    pub total_recorded: u64,
}

impl Journal {
    /// Creates a journal keeping the most recent `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Journal {
            entries: VecDeque::with_capacity(capacity.min(1 << 16)),
            capacity,
            total_recorded: 0,
        }
    }

    /// One journal holding every entry `parts` retain, ordered by time
    /// and, within one instant, by position in `parts`.
    pub fn merged(parts: &[&Journal]) -> Journal {
        let mut entries: Vec<Entry> = parts.iter().flat_map(|j| j.iter().copied()).collect();
        entries.sort_by_key(|e| e.time);
        Journal {
            capacity: entries.len().max(1),
            entries: entries.into(),
            total_recorded: parts.iter().map(|j| j.total_recorded).sum(),
        }
    }

    /// Records one dispatch (called by the simulator).
    pub fn record(&mut self, time: SimTime, event: &Event) {
        let kind = match event {
            Event::PacketArrival { packet, .. } => EntryKind::PacketArrival {
                id: packet.id,
                flow: packet.flow,
                class: packet.class,
                bytes: packet.size_bytes,
            },
            Event::TxComplete { port, .. } => EntryKind::TxComplete { port: *port },
            Event::Timer { token, .. } => EntryKind::Timer { token: *token },
            Event::Fault { action, .. } => EntryKind::Fault { action: *action },
        };
        self.record_kind(time, event.target(), kind);
    }

    /// Records one dispatch from its parts. The hot dispatch loop uses this
    /// so journaling never requires materializing an [`Event`] (packet
    /// payloads stay parked in the arena).
    pub fn record_kind(&mut self, time: SimTime, target: AgentId, kind: EntryKind) {
        let entry = Entry { time, target, kind };
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
        self.total_recorded += 1;
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the journal holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over retained entries, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &Entry> {
        self.entries.iter()
    }

    /// Retained entries within `[from, to]`.
    pub fn between(&self, from: SimTime, to: SimTime) -> Vec<Entry> {
        self.entries.iter().filter(|e| e.time >= from && e.time <= to).copied().collect()
    }

    /// Retained entries involving packets of `flow`, oldest first.
    pub fn for_flow(&self, flow: FlowId) -> Vec<Entry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::PacketArrival { flow: f, .. } if f == flow))
            .copied()
            .collect()
    }

    /// The journey of one packet (its arrival hops), oldest first.
    pub fn packet_journey(&self, id: PacketId) -> Vec<Entry> {
        self.entries
            .iter()
            .filter(|e| matches!(e.kind, EntryKind::PacketArrival { id: pid, .. } if pid == id))
            .copied()
            .collect()
    }

    /// Renders retained entries as one line per event (for dumping).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match e.kind {
                EntryKind::PacketArrival { id, flow, class, bytes } => out.push_str(&format!(
                    "{} {} <- packet {:?} {} class {} ({} B)\n",
                    e.time, e.target, id, flow, class, bytes
                )),
                EntryKind::TxComplete { port } => {
                    out.push_str(&format!("{} {} tx-complete port {port}\n", e.time, e.target))
                }
                EntryKind::Timer { token } => {
                    out.push_str(&format!("{} {} timer {token}\n", e.time, e.target))
                }
                EntryKind::Fault { action } => {
                    out.push_str(&format!("{} {} fault {action:?}\n", e.time, e.target))
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;

    fn arrival(t: u64, dst: u32, flow: u32, id: u64) -> Event {
        let pkt = Packet::data(FlowId(flow), AgentId(0), AgentId(dst), 500).with_id(PacketId(id));
        let _ = t;
        Event::PacketArrival { dst: AgentId(dst), packet: pkt }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut j = Journal::new(3);
        for i in 0..5u64 {
            j.record(SimTime::from_nanos(i), &arrival(i, 1, 0, i));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.total_recorded, 5);
        let first = j.iter().next().unwrap();
        assert_eq!(first.time, SimTime::from_nanos(2));
    }

    #[test]
    fn queries_by_time_flow_and_packet() {
        let mut j = Journal::new(100);
        j.record(SimTime::from_nanos(10), &arrival(10, 1, 7, 100));
        j.record(SimTime::from_nanos(20), &arrival(20, 2, 8, 101));
        j.record(SimTime::from_nanos(30), &arrival(30, 3, 7, 100));
        j.record(SimTime::from_nanos(40), &Event::Timer { agent: AgentId(5), token: 3 });

        assert_eq!(j.between(SimTime::from_nanos(15), SimTime::from_nanos(35)).len(), 2);
        assert_eq!(j.for_flow(FlowId(7)).len(), 2);
        let journey = j.packet_journey(PacketId(100));
        assert_eq!(journey.len(), 2);
        assert_eq!(journey[0].target, AgentId(1));
        assert_eq!(journey[1].target, AgentId(3));
    }

    #[test]
    fn render_is_nonempty_and_line_per_event() {
        let mut j = Journal::new(10);
        j.record(SimTime::from_nanos(1), &arrival(1, 1, 0, 1));
        j.record(SimTime::from_nanos(2), &Event::TxComplete { agent: AgentId(0), port: 0 });
        let text = j.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("tx-complete"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = Journal::new(0);
    }
}
