//! Output ports: a link (rate + propagation delay) fronted by a queue
//! discipline.
//!
//! A [`Port`] serializes one packet at a time. While busy, arriving packets
//! go to the discipline; when a transmission completes the port asks the
//! discipline for the next packet. Agents embed ports and forward
//! [`crate::sim::Agent::on_tx_complete`] callbacks to them.
//!
//! # Idle links cost no events
//!
//! Most transmissions end with nothing waiting behind them — access links,
//! ACK hops and receiver ports are idle far more often than not — and a
//! completion event that finds an empty queue has nothing to do. So a port
//! does not schedule one per packet. When a transmission begins the port
//! notes when the link frees (`free_at`) and *reserves* the event-queue
//! sequence number the completion would have taken
//! ([`crate::event`], "Reserved sequence numbers"). The event itself goes
//! into the queue only when there is work for it: at once if the
//! discipline already holds a packet, otherwise from [`Port::send`] the
//! first time a packet has to wait. A transmission nobody queues behind
//! never becomes an event.
//!
//! "Busy" is then a comparison, not a flag: the port is busy while the
//! reserved `(free_at, seq)` key has not fired, i.e. is later than the key
//! of the event being dispatched. That is exactly the interval over which
//! the eager port's flag was set, down to ties within one nanosecond: a
//! `send()` at `free_at` from an event scheduled before the transmission
//! began (lower sequence number) finds the port busy and queues, one
//! scheduled after finds it idle and transmits. The events that remain
//! carry the keys they always had, so the order of every dispatch is
//! unchanged.

use crate::disc::{Discipline, QEntry};
use crate::packet::{AgentId, Packet};
use crate::sim::Context;
use crate::time::{Rate, SimDuration, SimTime};

/// Counters kept by every port; a total is the sum over the classes.
#[derive(Debug, Clone, Default)]
pub struct PortStats {
    /// Per-class drop counts (classes 0..=3; higher classes fold into 3).
    pub drops_by_class: [u64; 4],
    /// Per-class transmit counts.
    pub tx_by_class: [u64; 4],
}

/// When a transmission ends, as an event-queue key.
#[derive(Debug, Clone, Copy)]
struct TxCompletion {
    /// When the link frees.
    free_at: SimTime,
    /// Sequence number reserved for the `TxComplete` event when the
    /// transmission began.
    seq: u64,
    /// Whether that event is in the queue (it is once a packet waits).
    scheduled: bool,
}

/// An output port transmitting towards a fixed peer agent.
#[derive(Debug)]
pub struct Port {
    /// Agent at the far end of the link.
    pub peer: AgentId,
    /// Link rate.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Index of this port within its owning agent (used to route
    /// `TxComplete` events back here).
    pub index: usize,
    disc: Box<dyn Discipline>,
    /// Completion of the transmission in progress, or of the last one
    /// (`None` until the first packet).
    tx: Option<TxCompletion>,
    /// Rate the port was built with; [`Port::set_rate_factor`] scales
    /// relative to this so repeated degradations do not compound.
    nominal_rate: Rate,
    /// Link state: while down the port stops serializing (fault injection).
    up: bool,
    /// Statistics.
    pub stats: PortStats,
    scratch_drops: Vec<QEntry>,
}

impl Port {
    /// Creates a port.
    pub fn new(
        index: usize,
        peer: AgentId,
        rate: Rate,
        delay: SimDuration,
        disc: Box<dyn Discipline>,
    ) -> Self {
        Port {
            peer,
            rate,
            delay,
            index,
            disc,
            tx: None,
            nominal_rate: rate,
            up: true,
            stats: PortStats::default(),
            scratch_drops: Vec::new(),
        }
    }

    /// Whether the port is serializing a packet: its completion key has
    /// not fired as of the event being dispatched.
    fn busy(&self, ctx: &Context<'_>) -> bool {
        self.tx.is_some_and(|tx| !ctx.has_fired(tx.free_at, tx.seq))
    }

    /// Cuts or restores the link. While down, offered packets queue (and may
    /// be dropped by the discipline) but nothing serializes. Restoring does
    /// not by itself resume transmission — call [`Port::restart`] from a
    /// dispatch context to drain the backlog.
    pub fn set_link_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Scales the link rate to `factor` x the nominal (construction-time)
    /// rate. `1.0` restores full rate. Takes effect from the next packet.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_rate_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "rate factor must be finite and positive: {factor}"
        );
        self.rate = self.nominal_rate.scale(factor);
    }

    /// Begins transmitting from the queue if the port is idle, the link is
    /// up, and a packet is waiting. Used after [`Port::set_link_up`] to
    /// resume a restored link.
    pub fn restart(&mut self, ctx: &mut Context<'_>) {
        if self.up && !self.busy(ctx) {
            if let Some(next) = self.disc.dequeue(ctx.now) {
                self.begin_tx(next, ctx);
            }
        }
    }

    /// Discards every queued packet (a simulated reboot), counting each in
    /// the drop statistics and releasing the parked payloads. A packet
    /// already serializing is not recalled. Returns the number of packets
    /// flushed.
    pub fn flush(&mut self, ctx: &mut Context<'_>) -> usize {
        let mut flushed = 0;
        while let Some(e) = self.disc.dequeue(ctx.now) {
            self.stats.drops_by_class[e.class.min(3) as usize] += 1;
            ctx.release(e.slot);
            flushed += 1;
        }
        flushed
    }

    /// The queue discipline, for inspection.
    pub fn discipline(&self) -> &dyn Discipline {
        self.disc.as_ref()
    }

    /// Replaces the queue discipline (only sensible before traffic flows).
    ///
    /// # Panics
    ///
    /// Panics if the current discipline still holds packets.
    pub fn set_discipline(&mut self, disc: Box<dyn Discipline>) {
        assert!(self.disc.is_empty(), "cannot replace a non-empty discipline");
        self.disc = disc;
    }

    /// Offers a packet for transmission. The payload is parked in the event
    /// queue's arena immediately; the discipline only ever handles the
    /// 16-byte [`QEntry`] descriptor. If the port is idle the packet starts
    /// serializing at once; otherwise it is queued (and possibly dropped by
    /// the discipline — drops release their arena slot before returning).
    /// Returns descriptors of the packets dropped by this call.
    pub fn send(&mut self, pkt: Packet, ctx: &mut Context<'_>) -> &[QEntry] {
        self.scratch_drops.clear();
        let size_bytes = pkt.size_bytes;
        let class = pkt.class;
        let entry = QEntry::new(ctx.stash(pkt), size_bytes, class);
        let busy = self.busy(ctx);
        if busy || !self.up {
            if busy {
                self.schedule_completion(ctx);
            }
            self.disc.enqueue(entry, ctx.now, &mut self.scratch_drops);
            for d in &self.scratch_drops {
                self.stats.drops_by_class[d.class.min(3) as usize] += 1;
                ctx.release(d.slot);
            }
        } else {
            self.begin_tx(entry, ctx);
        }
        &self.scratch_drops
    }

    fn begin_tx(&mut self, entry: QEntry, ctx: &mut Context<'_>) {
        let tx = self.rate.tx_time(entry.size_bytes);
        self.stats.tx_by_class[entry.class.min(3) as usize] += 1;
        // The completion's sequence number is taken here, ahead of the
        // arrival's, whether or not the event is ever scheduled.
        self.tx =
            Some(TxCompletion { free_at: ctx.now + tx, seq: ctx.reserve_seq(), scheduled: false });
        if !self.disc.is_empty() {
            self.schedule_completion(ctx);
        }
        ctx.deliver_slot(self.peer, tx + self.delay, entry.slot);
    }

    /// Puts the pending completion into the event queue, once.
    fn schedule_completion(&mut self, ctx: &mut Context<'_>) {
        let tx = self.tx.as_mut().expect("a transmission is in progress");
        if !tx.scheduled {
            tx.scheduled = true;
            ctx.schedule_tx_complete_at(self.index, tx.free_at, tx.seq);
        }
    }

    /// Must be called from the owning agent's
    /// [`crate::sim::Agent::on_tx_complete`] for this port's index. Only
    /// completions that had a packet waiting are dispatched; by then the
    /// completion key has fired, so the port already reads as idle.
    pub fn on_tx_complete(&mut self, ctx: &mut Context<'_>) {
        debug_assert!(
            self.tx.is_some_and(|tx| tx.scheduled && tx.free_at == ctx.now) && !self.busy(ctx),
            "tx-complete on a port that did not schedule one"
        );
        if !self.up {
            // Link cut mid-transmission: the in-flight packet completes,
            // but the backlog waits for restart() after link-up.
            return;
        }
        if let Some(next) = self.disc.dequeue(ctx.now) {
            self.begin_tx(next, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disc::{DropTail, QueueLimit};
    use crate::faults::{apply_port_fault, FaultAction, FaultSchedule};
    use crate::packet::FlowId;
    use crate::shard::{Partition, ShardedSimulator};
    use crate::sim::Agent;
    use proptest::prelude::*;
    use std::any::Any;

    /// A host that blasts `n` packets into its port at start.
    struct Blaster {
        port: Option<Port>,
        n: usize,
    }
    impl Agent for Blaster {
        fn start(&mut self, ctx: &mut Context<'_>) {
            let port = self.port.as_mut().unwrap();
            for seq in 0..self.n as u64 {
                let pkt = Packet::data(FlowId(0), ctx.self_id, port.peer, 500).with_seq(seq);
                port.send(pkt, ctx);
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
            self.port.as_mut().unwrap().on_tx_complete(ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Counter {
        got: Vec<(SimTime, u64)>,
    }
    impl Agent for Counter {
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.got.push((ctx.now, p.seq));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A host whose sends are scripted: timer `i` offers a packet of
    /// `plan[i].1` bytes (sequence number `i`) at `plan[i].0`, and notes how
    /// many packets the discipline holds right after. Honours port faults.
    struct Scripted {
        port: Port,
        plan: Vec<(SimTime, u32)>,
        /// Set timer `i + 1` from timer `i`'s handler, after its send, so
        /// its sequence number postdates that transmission's; otherwise
        /// every timer is set at start, before any transmission begins.
        chained: bool,
        queued_after_send: Vec<usize>,
    }
    impl Scripted {
        fn new(port: Port, plan: Vec<(SimTime, u32)>, chained: bool) -> Self {
            Scripted { port, plan, chained, queued_after_send: vec![] }
        }
    }
    impl Agent for Scripted {
        fn start(&mut self, ctx: &mut Context<'_>) {
            let preset = if self.chained { 1 } else { self.plan.len() };
            for (i, (at, _)) in self.plan.iter().take(preset).enumerate() {
                ctx.schedule_timer(at.duration_since(ctx.now), i as u64);
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_>) {
            let i = token as usize;
            let pkt = Packet::data(FlowId(0), ctx.self_id, self.port.peer, self.plan[i].1)
                .with_seq(token);
            self.port.send(pkt, ctx);
            self.queued_after_send.push(self.port.discipline().len_packets());
            if self.chained && i + 1 < self.plan.len() {
                ctx.schedule_timer(self.plan[i + 1].0.duration_since(ctx.now), token + 1);
            }
        }
        fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
            self.port.on_tx_complete(ctx);
        }
        fn on_fault(&mut self, action: &FaultAction, ctx: &mut Context<'_>) {
            apply_port_fault(std::slice::from_mut(&mut self.port), action, ctx);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ms(x: f64) -> SimTime {
        SimTime::from_secs_f64(x / 1e3)
    }

    /// `host` sending to a [`Counter`], agents 0 and 1 on one queue, after
    /// `faults` and `secs` of simulated time.
    fn run_pair(host: Box<dyn Agent>, faults: &FaultSchedule, secs: f64) -> ShardedSimulator {
        let agents = vec![host, Box::new(Counter { got: vec![] })];
        let mut sim = ShardedSimulator::new(1, &Partition::serial(2), agents);
        sim.install_faults(faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(secs));
        sim
    }

    /// A [`Blaster`] of `n` packets into a 4 Mb/s port (a 500-byte packet
    /// serializes in 1 ms) with `delay` and room for `queue` packets, run
    /// for `secs`.
    fn blast(n: usize, delay: SimDuration, queue: usize, secs: f64) -> ShardedSimulator {
        let disc = Box::new(DropTail::new(QueueLimit::Packets(queue)));
        let port = Port::new(0, AgentId(1), Rate::from_mbps(4.0), delay, disc);
        run_pair(Box::new(Blaster { port: Some(port), n }), &FaultSchedule::new(), secs)
    }

    fn blaster_stats(sim: &ShardedSimulator) -> &PortStats {
        &sim.agent::<Blaster>(AgentId(0)).port.as_ref().unwrap().stats
    }

    /// Runs a scripted host on a 4 Mb/s zero-delay link (a 500-byte packet
    /// serializes in 1 ms) for 1 s. Returns the simulator, whose agent 0 is
    /// the host and agent 1 a [`Counter`].
    fn run_scripted(
        plan: &[(f64, u32)],
        chained: bool,
        faults: &FaultSchedule,
    ) -> ShardedSimulator {
        let port = Port::new(
            0,
            AgentId(1),
            Rate::from_mbps(4.0),
            SimDuration::ZERO,
            Box::new(DropTail::new(QueueLimit::Packets(100))),
        );
        let plan = plan.iter().map(|&(at_ms, bytes)| (ms(at_ms), bytes)).collect();
        run_pair(Box::new(Scripted::new(port, plan, chained)), faults, 1.0)
    }

    fn arrivals(sim: &ShardedSimulator) -> Vec<SimTime> {
        sim.agent::<Counter>(AgentId(1)).got.iter().map(|g| g.0).collect()
    }

    fn host(sim: &ShardedSimulator) -> &Scripted {
        sim.agent::<Scripted>(AgentId(0))
    }

    /// A send at the very nanosecond the link frees, from an event that
    /// was scheduled before the transmission began: its key precedes the
    /// completion's, the port is still busy, the packet queues — and that
    /// puts the completion into the event queue, which starts it at once.
    #[test]
    fn send_at_free_at_from_an_earlier_scheduled_event_queues() {
        let sim = run_scripted(&[(0.0, 500), (1.0, 500)], false, &FaultSchedule::new());
        assert_eq!(host(&sim).queued_after_send, vec![0, 1]);
        assert_eq!(arrivals(&sim), vec![ms(1.0), ms(2.0)]);
        // Two timers, two arrivals, and the one completion that dequeued.
        assert_eq!(sim.events_processed(), 5);
    }

    /// The same instant from an event scheduled after the transmission
    /// began: the completion's key has passed, the port is idle, the packet
    /// goes straight to the wire, and no completion is ever scheduled.
    #[test]
    fn send_at_free_at_from_a_later_scheduled_event_transmits() {
        let sim = run_scripted(&[(0.0, 500), (1.0, 500)], true, &FaultSchedule::new());
        assert_eq!(host(&sim).queued_after_send, vec![0, 0]);
        assert_eq!(arrivals(&sim), vec![ms(1.0), ms(2.0)]);
        assert_eq!(sim.events_processed(), 4);
    }

    /// A link cut mid-transmission with nothing queued: the packet on the
    /// wire completes (without an event), the restore finds nothing to
    /// restart, and the next send starts at once.
    #[test]
    fn link_cut_mid_transmission_with_nothing_queued() {
        let mut faults = FaultSchedule::new();
        faults.link_outage(AgentId(0), 0, ms(0.5), ms(5.0));
        let sim = run_scripted(&[(0.0, 500), (6.0, 500)], false, &faults);
        assert_eq!(host(&sim).queued_after_send, vec![0, 0]);
        assert_eq!(arrivals(&sim), vec![ms(1.0), ms(7.0)]);
        // Two timers, two faults, two arrivals, no completion.
        assert_eq!(sim.events_processed(), 6);
    }

    /// Packets offered during an outage wait for `restart()`, whether they
    /// arrived behind the packet on the wire (whose completion is then
    /// scheduled, fires with the link down and parks the backlog) or at an
    /// idle, cut port (no completion at all).
    #[test]
    fn backlog_of_a_cut_link_waits_for_restart() {
        let mut faults = FaultSchedule::new();
        faults.link_outage(AgentId(0), 0, ms(0.5), ms(5.0));
        let sim = run_scripted(&[(0.0, 500), (0.7, 500), (2.0, 500)], false, &faults);
        assert_eq!(host(&sim).queued_after_send, vec![0, 1, 2]);
        assert_eq!(arrivals(&sim), vec![ms(1.0), ms(6.0), ms(7.0)]);
        assert_eq!(host(&sim).port.stats.drops_by_class, [0; 4]);
    }

    /// A link restored while the packet cut on the wire is still
    /// serializing: `restart()` sees a busy port and leaves the backlog to
    /// the completion, which was scheduled when the backlog formed.
    #[test]
    fn restore_before_the_cut_transmission_ends_leaves_it_to_the_completion() {
        let mut faults = FaultSchedule::new();
        faults.link_outage(AgentId(0), 0, ms(0.2), ms(0.8));
        let sim = run_scripted(&[(0.0, 500), (0.5, 500)], false, &faults);
        assert_eq!(arrivals(&sim), vec![ms(1.0), ms(2.0)]);
    }

    /// `flush()` and `restart()` after a completion that was never an
    /// event, and a flush while such a transmission is on the wire: the
    /// port reads as idle (or busy) from the reserved key alone.
    #[test]
    fn flush_and_restart_after_an_elided_completion() {
        let host_id = AgentId(0);
        let mut faults = FaultSchedule::new();
        faults.flush_at(host_id, ms(0.5)).flush_at(host_id, ms(3.0)).push(
            ms(4.0),
            host_id,
            FaultAction::LinkUp { port: 0 },
        );
        let sim = run_scripted(&[(0.0, 500), (0.6, 500), (5.0, 500)], false, &faults);
        // The second packet still queues behind the first after the flush.
        assert_eq!(host(&sim).queued_after_send, vec![0, 1, 0]);
        assert_eq!(arrivals(&sim), vec![ms(1.0), ms(2.0), ms(6.0)]);
        let stats = &host(&sim).port.stats;
        assert_eq!((stats.tx_by_class, stats.drops_by_class), ([0, 0, 0, 3], [0; 4]));
    }

    #[test]
    fn serializes_back_to_back_at_link_rate() {
        // 10 ms delay on top of the 1 ms serialization.
        let sim = blast(3, SimDuration::from_millis(10), 100, 1.0);
        let got = &sim.agent::<Counter>(AgentId(1)).got;
        assert_eq!(got.len(), 3);
        // Arrivals at 11, 12, 13 ms: serialization is pipelined, propagation adds 10 ms.
        assert_eq!(got[0].0, SimTime::from_secs_f64(0.011));
        assert_eq!(got[1].0, SimTime::from_secs_f64(0.012));
        assert_eq!(got[2].0, SimTime::from_secs_f64(0.013));
        // In order.
        assert_eq!(got.iter().map(|g| g.1).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(blaster_stats(&sim).tx_by_class, [0, 0, 0, 3]);
    }

    #[test]
    fn drops_count_in_stats() {
        // 10 packets into a queue of 2 (+1 in flight) -> 7 drops.
        let sim = blast(10, SimDuration::ZERO, 2, 1.0);
        let stats = blaster_stats(&sim);
        assert_eq!(stats.drops_by_class, [0, 0, 0, 7]);
        assert_eq!(stats.tx_by_class, [0, 0, 0, 3]);
        assert_eq!(sim.agent::<Counter>(AgentId(1)).got.len(), 3);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        // 50 packets x 1 ms back to back: the link is busy for the first
        // 50 ms of the 100 ms window and idle after.
        let sim = blast(50, SimDuration::ZERO, 100, 0.1);
        let got = &sim.agent::<Counter>(AgentId(1)).got;
        let busy = got.last().expect("packets arrived").0.duration_since(SimTime::ZERO);
        assert_eq!((got.len(), busy), (50, SimDuration::from_millis(50)));
        assert!((busy.as_secs_f64() / 0.1 - 0.5).abs() < 1e-9);
    }

    proptest! {
        /// One port against the closed form of a work-conserving FIFO
        /// link, `depart_i = max(arrive_i, depart_{i-1}) + tx_i`, at 1 ns
        /// per byte so that arrivals, completions and each other collide on
        /// the same nanosecond all the time — with the arrival timers set
        /// before the transmissions they collide with, and after.
        #[test]
        fn departures_match_the_fifo_closed_form(
            script in proptest::collection::vec((0u64..15, 1u32..12), 1..80),
            chained in any::<bool>(),
        ) {
            let port = Port::new(
                0,
                AgentId(1),
                Rate::from_mbps(8000.0),
                SimDuration::ZERO,
                Box::new(DropTail::new(QueueLimit::Packets(1000))),
            );
            let mut at = 0;
            let plan: Vec<(SimTime, u32)> = script
                .iter()
                .map(|&(gap, bytes)| {
                    at += gap;
                    (SimTime::from_nanos(at), bytes)
                })
                .collect();
            let mut expected = Vec::new();
            let mut depart = 0;
            for (arrive, bytes) in &plan {
                depart = depart.max(arrive.as_nanos()) + u64::from(*bytes);
                expected.push((SimTime::from_nanos(depart), expected.len() as u64));
            }

            let scripted = Box::new(Scripted::new(port, plan, chained));
            let sim = run_pair(scripted, &FaultSchedule::new(), 1.0);

            prop_assert_eq!(&sim.agent::<Counter>(AgentId(1)).got, &expected);
            // A completion is an event only for a packet that had to wait.
            let waited = host(&sim).queued_after_send.iter().filter(|&&q| q > 0).count() as u64;
            let base = 2 * expected.len() as u64;
            prop_assert!(sim.events_processed() <= base + waited);
        }
    }
}
