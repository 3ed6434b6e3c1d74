//! The simulation engine: the [`Agent`] trait, the dispatch [`Context`], and
//! the event loop of one shard.
//!
//! Agents (hosts, routers, sinks) are owned by the shard that runs them, in a
//! slab, and addressed by their global [`AgentId`]. The event loop pops the
//! earliest event, moves the target agent out of the slab, and invokes its
//! handler with a [`Context`] that can schedule further events — no interior
//! mutability, no unsafe, fully deterministic. Every run is driven through
//! [`crate::shard::ShardedSimulator`], which owns one such loop per shard; a
//! run on one queue is a one-shard partition ([`crate::shard::Partition::serial`]).

use crate::error::SimError;
use crate::event::{Ev, Event, EventQueue, PacketSlot};
use crate::faults::{ControlFaultPolicy, Fate, FaultAction, FaultStats, GLOBAL};
use crate::packet::{AgentId, Packet, PacketKind};
use crate::shard::{stream_seed, CrossEvent, ShardMap};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::sync::Arc;

/// A simulation participant.
///
/// Every agent is `Any`: scenario code recovers the concrete type (and its
/// collected statistics) after a run via
/// [`crate::shard::ShardedSimulator::agent`], which upcasts the boxed agent
/// to `&dyn Any` and downcasts that. Agents are `Send` so a
/// [`crate::shard::ShardedSimulator`] can drive shards on worker threads;
/// every agent is plain owned data, so this costs nothing.
pub trait Agent: Any + Send {
    /// Called once at simulation start (time zero), in registration order.
    fn start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a packet arrives at this agent.
    fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>);

    /// Called when a timer scheduled with [`Context::schedule_timer`] fires.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_>) {}

    /// Called when output port `port` finishes serializing a packet and
    /// has another waiting; forward it to [`crate::port::Port::on_tx_complete`].
    /// A port with nothing queued completes silently.
    fn on_tx_complete(&mut self, _port: usize, _ctx: &mut Context<'_>) {}

    /// Called when a scripted fault targets this agent (see
    /// [`crate::faults`]). Port-owning agents typically forward to
    /// [`crate::faults::apply_port_fault`]; the default ignores faults, so
    /// agents without ports are unaffected.
    fn on_fault(&mut self, _action: &FaultAction, _ctx: &mut Context<'_>) {}
}

/// Routing state of one shard of a [`crate::shard::ShardedSimulator`].
#[derive(Debug)]
pub(crate) struct ShardState {
    /// This shard's index.
    shard: u32,
    /// Global agent → (shard, local slot) map, shared read-only.
    map: Arc<ShardMap>,
    /// Global id of each local slab slot.
    globals: Vec<AgentId>,
    /// Cross-shard deliveries buffered until the next window barrier, by
    /// destination shard. Empty when the partition has no lookahead: no
    /// link crosses its shards.
    outboxes: Vec<Vec<CrossEvent>>,
    /// Emission counter: part of the deterministic barrier merge key.
    out_seq: u64,
}

/// Handle given to agent callbacks for interacting with the simulator.
#[derive(Debug)]
pub struct Context<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// Id of the agent being dispatched.
    pub self_id: AgentId,
    queue: &'a mut EventQueue,
    rng: &'a mut StdRng,
    shard: &'a mut ShardState,
}

impl Context<'_> {
    /// Schedules a timer for the current agent, `delay` from now.
    pub fn schedule_timer(&mut self, delay: SimDuration, token: u64) {
        self.queue.schedule_ev(self.now + delay, Ev::Timer { agent: self.self_id, token });
    }

    /// Delivers `packet` to `dst` after `delay` (propagation is modelled by
    /// the caller; ports use this internally). A delivery to an agent owned
    /// by another shard is buffered in the outbox and exchanged at the next
    /// window barrier.
    pub fn deliver(&mut self, dst: AgentId, delay: SimDuration, packet: Packet) {
        let at = self.now + delay;
        match self.foreign_shard(dst) {
            Some(dst_shard) => self.post_cross(at, dst_shard, dst, packet),
            None => {
                let slot = self.queue.stash_packet(packet);
                self.queue.schedule_ev(at, Ev::Arrival { dst, slot });
            }
        }
    }

    /// The shard that owns `dst`, when it is not the one running this agent.
    fn foreign_shard(&self, dst: AgentId) -> Option<u32> {
        let dst_shard = self.shard.map.shard_of[dst.0 as usize];
        (dst_shard != self.shard.shard).then_some(dst_shard)
    }

    /// Buffers an arrival at `dst`, owned by shard `dst_shard`, in that
    /// shard's outbox: the one way a packet leaves for another shard's queue.
    fn post_cross(&mut self, at: SimTime, dst_shard: u32, dst: AgentId, packet: Packet) {
        let s = &mut *self.shard;
        let seq = s.out_seq;
        s.out_seq += 1;
        s.outboxes
            .get_mut(dst_shard as usize)
            .expect("a partition without a lookahead has no cross-shard link")
            .push(CrossEvent { time: at, src_shard: s.shard, seq, dst, packet });
    }

    /// Parks a packet payload in the event queue's arena, returning its
    /// slot. Ports use this so queue disciplines handle 16-byte
    /// [`crate::disc::QEntry`] descriptors instead of whole packets.
    pub fn stash(&mut self, packet: Packet) -> PacketSlot {
        self.queue.stash_packet(packet)
    }

    /// Drops the packet parked at `slot`, freeing the slot (a discipline
    /// drop or a queue flush).
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn release(&mut self, slot: PacketSlot) {
        let _ = self.queue.take_packet(slot);
    }

    /// The packet parked at `slot`, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn packet(&self, slot: PacketSlot) -> &Packet {
        self.queue.packet(slot)
    }

    /// Delivers the packet parked at `slot` to `dst` after `delay`, without
    /// copying the payload: locally the slot rides through the event queue
    /// as-is; a cross-shard delivery takes the packet out of the arena into
    /// the outbox.
    ///
    /// # Panics
    ///
    /// Panics if the slot is vacant.
    pub fn deliver_slot(&mut self, dst: AgentId, delay: SimDuration, slot: PacketSlot) {
        let at = self.now + delay;
        match self.foreign_shard(dst) {
            Some(dst_shard) => {
                let packet = self.queue.take_packet(slot);
                self.post_cross(at, dst_shard, dst, packet);
            }
            None => self.queue.schedule_ev(at, Ev::Arrival { dst, slot }),
        }
    }

    /// Reserves the event-queue sequence number a transmit-complete
    /// scheduled now would take. [`crate::port::Port`] holds on to it and
    /// schedules the event only if a packet ends up waiting.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        self.queue.reserve_seq()
    }

    /// Schedules the transmit-complete callback for port `port` of the
    /// current agent at `at`, under a sequence number from
    /// [`Context::reserve_seq`].
    pub(crate) fn schedule_tx_complete_at(&mut self, port: usize, at: SimTime, seq: u64) {
        let port = u32::try_from(port).expect("port index overflow");
        self.queue.schedule_ev_seq(at, seq, Ev::Tx { agent: self.self_id, port });
    }

    /// Whether an event keyed `(at, seq)` would have fired by now: its key
    /// is at or before that of the event being dispatched.
    pub(crate) fn has_fired(&self, at: SimTime, seq: u64) -> bool {
        self.queue.has_fired(at, seq)
    }

    /// The dispatched agent's own deterministic random stream,
    /// [`stream_seed`]`(run seed, agent id)`: what an agent draws depends on
    /// its own event history only, never on which shard hosts it.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// The event loop of one shard: its queue, its agents and their random
/// streams. [`crate::shard::ShardedSimulator`] builds and drives it.
#[derive(Debug)]
pub(crate) struct Simulator {
    now: SimTime,
    queue: EventQueue,
    agents: Vec<Option<Box<dyn Agent>>>,
    seed: u64,
    /// One stream per agent, parallel to `agents`.
    rngs: Vec<StdRng>,
    started: bool,
    events_processed: u64,
    peak_queue_depth: usize,
    control_policy: Option<ControlFaultPolicy>,
    fault_stats: FaultStats,
    shard: ShardState,
    /// Cross-shard arrivals a barrier found unfired in the lane.
    cross_spills: u64,
}

impl std::fmt::Debug for dyn Agent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<agent>")
    }
}

impl Simulator {
    /// Creates shard `shard` of a [`crate::shard::ShardedSimulator`], whose
    /// agents draw from streams derived from `seed` (see [`Context::rng`]):
    /// deliveries to agents owned by other shards are buffered in one of
    /// `n_outboxes` outboxes (one per shard of a partition with cross-shard
    /// links, none otherwise) instead of the local queue.
    pub(crate) fn new(seed: u64, shard: u32, map: Arc<ShardMap>, n_outboxes: usize) -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            agents: Vec::new(),
            seed,
            rngs: Vec::new(),
            started: false,
            events_processed: 0,
            peak_queue_depth: 0,
            control_policy: None,
            fault_stats: FaultStats::default(),
            shard: ShardState {
                shard,
                map,
                globals: Vec::new(),
                outboxes: vec![Vec::new(); n_outboxes],
                out_seq: 0,
            },
            cross_spills: 0,
        }
    }

    /// Registers an agent under its global id. Agents must be added in
    /// ascending global-id order so local slots match the shard map.
    pub(crate) fn add_agent(&mut self, global: AgentId, agent: Box<dyn Agent>) {
        let s = &mut self.shard;
        debug_assert_eq!(
            s.map.local_of[global.0 as usize] as usize,
            self.agents.len(),
            "shard agents must be added in ascending global-id order"
        );
        s.globals.push(global);
        self.rngs.push(StdRng::seed_from_u64(stream_seed(self.seed, u64::from(global.0))));
        self.agents.push(Some(agent));
    }

    /// Counters for applied faults and control-plane packet mangling.
    pub(crate) fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Total number of events processed so far: arrivals, timers, faults
    /// and the transmit-completes that had a packet waiting. A transmission
    /// that ends on an idle port is not an event ([`crate::port`]).
    pub(crate) fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// High-water mark of the event queue over the run so far, cross-shard
    /// arrivals waiting in the lane included. A proxy for the working-set
    /// size of the engine; `benchmark/` reports it as
    /// `netsim.peak_queue_depth`.
    pub(crate) fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Immutable access to a registered agent, downcast to its concrete
    /// type.
    pub(crate) fn try_agent<T: Agent>(&self, id: AgentId) -> Result<&T, SimError> {
        let idx = self.local_slot(id)?;
        let slot = self.agents.get(idx).ok_or(SimError::UnknownAgent(id))?;
        let agent: &dyn Any = slot.as_deref().ok_or(SimError::AgentBusy(id))?;
        agent
            .downcast_ref::<T>()
            .ok_or(SimError::AgentTypeMismatch { agent: id, expected: std::any::type_name::<T>() })
    }

    /// Translates a global agent id to this shard's slab slot, rejecting
    /// ids owned by other shards.
    fn local_slot(&self, id: AgentId) -> Result<usize, SimError> {
        let g = id.0 as usize;
        if self.shard.map.shard_of.get(g).copied() == Some(self.shard.shard) {
            Ok(self.shard.map.local_of[g] as usize)
        } else {
            Err(SimError::UnknownAgent(id))
        }
    }

    fn start_agents(&mut self) {
        self.started = true;
        for i in 0..self.agents.len() {
            let mut agent = self.agents[i].take().expect("agent present at start");
            let mut ctx = Context {
                now: self.now,
                self_id: self.shard.globals[i],
                queue: &mut self.queue,
                rng: &mut self.rngs[i],
                shard: &mut self.shard,
            };
            agent.start(&mut ctx);
            self.agents[i] = Some(agent);
        }
    }

    /// Pops and dispatches one event strictly before `end` (or up to and
    /// including `end` when `inclusive`); returns `false`, leaving later
    /// events queued, when there is none.
    fn step_before(&mut self, end: SimTime, inclusive: bool) -> bool {
        if !self.started {
            self.start_agents();
        }
        let Some((time, ev)) = self.queue.pop_entry_before(end, inclusive) else {
            return false;
        };
        debug_assert!(time >= self.now, "time must be monotone");
        self.now = time;
        self.events_processed += 1;
        // +1 counts the event just popped: the high-water mark is the depth
        // the queue reached before this dispatch drained it by one.
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len() + 1);
        match ev {
            Ev::Arrival { dst, slot } => {
                // Control-plane fault policy: arriving ACK/NACK packets may
                // be dropped, duplicated, or delayed. One fate per arrival,
                // drawn from the destination agent's stream, keeps the run
                // deterministic under any partition. Re-injected copies
                // pass through the policy again on their own arrival
                // (geometric, terminates almost surely while fractions stay
                // below 1).
                if let Some(policy) = self.control_policy {
                    let kind = self.queue.packet(slot).kind;
                    if matches!(kind, PacketKind::Ack | PacketKind::Nack) {
                        let dst_slot = self.local_slot(dst).expect("arrival at a local agent");
                        let later = self.now + policy.reorder_delay;
                        match Fate::draw(&policy.fractions(), &mut self.rngs[dst_slot]) {
                            Fate::Drop => {
                                self.fault_stats.control_dropped += 1;
                                let _ = self.queue.take_packet(slot);
                                return true;
                            }
                            Fate::Duplicate => {
                                self.fault_stats.control_duplicated += 1;
                                let copy = self.queue.packet(slot).clone();
                                let copy_slot = self.queue.stash_packet(copy);
                                self.queue.schedule_ev(later, Ev::Arrival { dst, slot: copy_slot });
                                // The original still dispatches below.
                            }
                            Fate::Reorder => {
                                self.fault_stats.control_reordered += 1;
                                self.queue.schedule_ev(later, Ev::Arrival { dst, slot });
                                return true;
                            }
                            _ => {}
                        }
                    }
                }
                let packet = self.queue.take_packet(slot);
                self.dispatch(dst, |agent, ctx| agent.on_packet(packet, ctx));
            }
            Ev::Tx { agent, port } => {
                self.dispatch(agent, |a, ctx| a.on_tx_complete(port as usize, ctx));
            }
            Ev::Timer { agent, token } => {
                self.dispatch(agent, |a, ctx| a.on_timer(token, ctx));
            }
            Ev::Fault { agent, idx } => {
                let action = self.queue.take_fault(idx);
                // Global fault actions are absorbed by the simulator itself;
                // agent-targeted ones fall through to normal dispatch. A
                // global action is broadcast to every shard and counted by
                // shard 0 alone, so it counts once whatever the partition.
                if agent != GLOBAL || self.shard.shard == 0 {
                    self.fault_stats.faults_applied += 1;
                }
                match action {
                    // `install_faults` validated the policy.
                    FaultAction::SetControlPolicy(p) => self.control_policy = Some(p),
                    FaultAction::ClearControlPolicy => self.control_policy = None,
                    _ => self.dispatch(agent, |a, ctx| a.on_fault(&action, ctx)),
                }
            }
        }
        true
    }

    /// Moves the target agent out of the slab and invokes `f` with a fresh
    /// dispatch context.
    fn dispatch(&mut self, target: AgentId, f: impl FnOnce(&mut dyn Agent, &mut Context<'_>)) {
        let idx = self
            .local_slot(target)
            .unwrap_or_else(|e| panic!("event addressed to foreign agent: {e}"));
        let mut agent = self.agents[idx]
            .take()
            .unwrap_or_else(|| panic!("event addressed to unknown or re-entrant {target}"));
        let mut ctx = Context {
            now: self.now,
            self_id: target,
            queue: &mut self.queue,
            rng: &mut self.rngs[idx],
            shard: &mut self.shard,
        };
        f(agent.as_mut(), &mut ctx);
        self.agents[idx] = Some(agent);
    }

    /// Processes every event strictly before `end` (or up to and including
    /// `end` when `inclusive`). Interior windows are exclusive because
    /// events at exactly the barrier time must be merged with cross-shard
    /// arrivals first.
    pub(crate) fn run_window(&mut self, end: SimTime, inclusive: bool) {
        while self.step_before(end, inclusive) {}
    }

    /// Moves the clock forward to `t` without processing events (never
    /// backward). The sharded executor calls this after the final window so
    /// every shard agrees on the committed horizon.
    pub(crate) fn advance_clock_to(&mut self, t: SimTime) {
        if self.now < t {
            self.now = t;
        }
    }

    /// This shard's buffered cross-shard deliveries, indexed by destination
    /// shard, for the window executor to empty. None for a partition without
    /// cross-shard links.
    pub(crate) fn outboxes_mut(&mut self) -> &mut [Vec<CrossEvent>] {
        &mut self.shard.outboxes
    }

    /// Empties the queue's lane for the next barrier batch and returns its
    /// buffer; arrivals the window left unfired are re-scheduled through
    /// the heap and counted (`cross_spills`).
    pub(crate) fn take_lane(&mut self) -> Vec<CrossEvent> {
        let (buffer, leftovers) = self.queue.take_lane();
        self.cross_spills += leftovers as u64;
        buffer
    }

    /// Installs the arrivals other shards emitted in the window that ended
    /// at `window_end`, sorted in merge order, as the queue's lane.
    ///
    /// # Panics
    ///
    /// Panics if the batch reaches into this shard's past: a link crossing
    /// the cut is faster than the lookahead the windows were laid with.
    pub(crate) fn install_lane(&mut self, batch: Vec<CrossEvent>, window_end: SimTime) {
        debug_assert!(batch.iter().all(|e| e.time >= window_end), "lookahead violation");
        // Sorted, so the head is the earliest: one check holds in release
        // what the line above holds per event in debug.
        if let Some(head) = batch.first() {
            assert!(
                head.time >= window_end,
                "lookahead violation: cross-shard event at {:?} before barrier {window_end:?}",
                head.time
            );
        }
        self.queue.install_lane(batch);
    }

    /// Cross-shard arrivals that outlived the window after their barrier
    /// and went through the heap after all.
    pub(crate) fn cross_spills(&self) -> u64 {
        self.cross_spills
    }

    /// Schedules an externally produced event into this shard's queue:
    /// how [`crate::shard::ShardedSimulator`] routes faults to the shard
    /// that owns their target. Packets cross shards through the lane only.
    pub(crate) fn inject(&mut self, time: SimTime, event: Event) {
        self.queue.schedule(time, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind};
    use crate::shard::{Partition, ShardedSimulator};

    /// Sends one packet to a peer at start; the peer echoes it back.
    struct Echo {
        peer: Option<AgentId>,
        got: Vec<(SimTime, PacketKind)>,
    }

    impl Agent for Echo {
        fn start(&mut self, ctx: &mut Context<'_>) {
            if let Some(peer) = self.peer {
                let pkt = Packet::data(FlowId(0), ctx.self_id, peer, 500);
                ctx.deliver(peer, SimDuration::from_millis(5), pkt);
            }
        }
        fn on_packet(&mut self, packet: Packet, ctx: &mut Context<'_>) {
            self.got.push((ctx.now, packet.kind));
            if packet.kind == PacketKind::Data {
                let ack = Packet::ack_for(&packet, 40);
                ctx.deliver(ack.dst, SimDuration::from_millis(5), ack);
            }
        }
    }

    /// An echo pair on one queue, run for a second: agent 0 sends to 1, and
    /// 1 sends to 0 when `both_send`.
    fn echo_pair(seed: u64, both_send: bool) -> ShardedSimulator {
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(Echo { peer: Some(AgentId(1)), got: vec![] }),
            Box::new(Echo { peer: both_send.then_some(AgentId(0)), got: vec![] }),
        ];
        let mut sim = ShardedSimulator::new(seed, &Partition::serial(2), agents);
        sim.run_until(SimTime::from_secs_f64(1.0));
        sim
    }

    #[test]
    fn round_trip_delivery() {
        let sim = echo_pair(1, false);
        let (a, b) = (AgentId(0), AgentId(1));

        let bv = &sim.agent::<Echo>(b).got;
        assert_eq!(bv.len(), 1);
        assert_eq!(bv[0].0, SimTime::from_secs_f64(0.005));
        assert_eq!(bv[0].1, PacketKind::Data);

        let av = &sim.agent::<Echo>(a).got;
        assert_eq!(av.len(), 1);
        assert_eq!(av[0].0, SimTime::from_secs_f64(0.010));
        assert_eq!(av[0].1, PacketKind::Ack);
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = ShardedSimulator::new(1, &Partition::serial(0), Vec::new());
        sim.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(sim.now(), SimTime::from_secs_f64(2.0));
    }

    #[test]
    fn an_echo_pair_dispatches_two_data_and_two_acks() {
        let sim = echo_pair(1, true);
        let (a, b) = (AgentId(0), AgentId(1));
        // 2 data + 2 acks, each arrival one event.
        assert_eq!(sim.events_processed(), 4);
        for id in [a, b] {
            let kinds: Vec<PacketKind> = sim.agent::<Echo>(id).got.iter().map(|g| g.1).collect();
            assert_eq!(kinds, [PacketKind::Data, PacketKind::Ack]);
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        fn run() -> Vec<(SimTime, PacketKind)> {
            echo_pair(99, true).agent::<Echo>(AgentId(0)).got.clone()
        }
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::disc::{DropTail, QueueLimit};
    use crate::faults::{apply_port_fault, FaultSchedule, GLOBAL};
    use crate::packet::FlowId;
    use crate::port::Port;
    use crate::shard::{Partition, ShardedSimulator};
    use crate::time::Rate;

    /// Blasts `n` packets into its port at start and honours fault events.
    struct PortHost {
        port: Port,
        n: usize,
    }
    impl Agent for PortHost {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for seq in 0..self.n as u64 {
                let pkt = Packet::data(FlowId(0), ctx.self_id, self.port.peer, 500).with_seq(seq);
                self.port.send(pkt, ctx);
            }
        }
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {}
        fn on_tx_complete(&mut self, _port: usize, ctx: &mut Context<'_>) {
            self.port.on_tx_complete(ctx);
        }
        fn on_fault(&mut self, action: &FaultAction, ctx: &mut Context<'_>) {
            apply_port_fault(std::slice::from_mut(&mut self.port), action, ctx);
        }
    }

    struct Sink {
        arrivals: Vec<SimTime>,
    }
    impl Agent for Sink {
        fn on_packet(&mut self, _p: Packet, ctx: &mut Context<'_>) {
            self.arrivals.push(ctx.now);
        }
    }

    /// A host blasting `n` packets at a sink on one queue: host 0, sink 1.
    fn host_and_sink(n: usize, seed: u64) -> ShardedSimulator {
        let agents: Vec<Box<dyn Agent>> =
            vec![Box::new(host(n)), Box::new(Sink { arrivals: vec![] })];
        ShardedSimulator::new(seed, &Partition::serial(2), agents)
    }

    const SRC: AgentId = AgentId(0);
    const SINK: AgentId = AgentId(1);

    fn host(n: usize) -> PortHost {
        // 4 Mb/s, zero delay: one 500-byte packet serializes in 1 ms.
        PortHost {
            port: Port::new(
                0,
                AgentId(1),
                Rate::from_mbps(4.0),
                SimDuration::ZERO,
                Box::new(DropTail::new(QueueLimit::Packets(100))),
            ),
            n,
        }
    }

    #[test]
    fn link_outage_pauses_then_drains_without_loss() {
        let mut sim = host_and_sink(10, 1);
        let mut faults = FaultSchedule::new();
        faults.link_outage(SRC, 0, SimTime::from_secs_f64(0.001), SimTime::from_secs_f64(0.050));
        sim.install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(1.0));

        let arrivals = &sim.agent::<Sink>(SINK).arrivals;
        assert_eq!(arrivals.len(), 10, "nothing is lost across an outage");
        // First packet made it out before the cut; the rest drain after.
        assert_eq!(arrivals[0], SimTime::from_secs_f64(0.001));
        assert_eq!(arrivals[1], SimTime::from_secs_f64(0.051));
        assert_eq!(arrivals[9], SimTime::from_secs_f64(0.059));
        let stats = &sim.agent::<PortHost>(SRC).port.stats;
        assert_eq!(stats.drops_by_class, [0; 4]);
        assert_eq!(sim.fault_stats().faults_applied, 2);
    }

    #[test]
    fn flush_discards_backlog_and_counts_drops() {
        let mut sim = host_and_sink(10, 1);
        let mut faults = FaultSchedule::new();
        // At t = 4.5 ms, packets 0-3 have serialized, 4 is on the wire,
        // 5-9 are queued: the flush discards those five.
        faults.flush_at(SRC, SimTime::from_secs_f64(0.0045));
        sim.install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(1.0));

        assert_eq!(sim.agent::<Sink>(SINK).arrivals.len(), 5);
        let stats = &sim.agent::<PortHost>(SRC).port.stats;
        assert_eq!((stats.drops_by_class, stats.tx_by_class), ([0, 0, 0, 5], [0, 0, 0, 5]));
    }

    #[test]
    fn degraded_link_slows_serialization() {
        let mut sim = host_and_sink(10, 1);
        let mut faults = FaultSchedule::new();
        // Half rate from the start: 2 ms per packet instead of 1 ms.
        faults.push(SimTime::ZERO, SRC, FaultAction::DegradeLink { port: 0, factor: 0.5 });
        sim.install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(1.0));

        let arrivals = &sim.agent::<Sink>(SINK).arrivals;
        assert_eq!(arrivals.len(), 10);
        // Packet 0 started at full rate (before the fault fired); the rest
        // serialize at half rate.
        assert_eq!(*arrivals.last().unwrap(), SimTime::from_secs_f64(0.019));
    }

    #[test]
    fn control_policy_drops_acks_inside_its_window() {
        // Echo pair: A sends data at start and again after the window, B
        // acks each; a full-drop policy starves A while it is set.
        struct EchoPeer {
            peer: Option<AgentId>,
            acks: Vec<SimTime>,
        }
        impl Agent for EchoPeer {
            fn start(&mut self, ctx: &mut Context<'_>) {
                if self.peer.is_some() {
                    self.on_timer(0, ctx);
                    ctx.schedule_timer(SimDuration::from_millis(1500), 0);
                }
            }
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_>) {
                let peer = self.peer.expect("only the sender sets timers");
                let pkt = Packet::data(FlowId(0), ctx.self_id, peer, 500);
                ctx.deliver(peer, SimDuration::from_millis(5), pkt);
            }
            fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
                match p.kind {
                    PacketKind::Data => {
                        let ack = Packet::ack_for(&p, 40);
                        ctx.deliver(ack.dst, SimDuration::from_millis(5), ack);
                    }
                    _ => self.acks.push(ctx.now),
                }
            }
        }

        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(EchoPeer { peer: Some(AgentId(1)), acks: vec![] }),
            Box::new(EchoPeer { peer: None, acks: vec![] }),
        ];
        let mut sim = ShardedSimulator::new(1, &Partition::serial(2), agents);
        let mut faults = FaultSchedule::new();
        faults.control_fault_window(
            ControlFaultPolicy::drop_fraction(1.0),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
        );
        sim.install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(2.0));

        // The ACK inside the window is dropped; the one after it arrives,
        // so the window's end cleared the policy.
        assert_eq!(sim.agent::<EchoPeer>(AgentId(0)).acks, [SimTime::from_secs_f64(1.51)]);
        assert_eq!(sim.fault_stats().control_dropped, 1);
        // Set and clear: two global actions, each counted once.
        assert_eq!(sim.fault_stats().faults_applied, 2);
    }

    #[test]
    fn faulted_run_is_deterministic() {
        fn run() -> (Vec<SimTime>, u64) {
            let mut sim = host_and_sink(10, 33);
            let mut faults = FaultSchedule::new();
            for (from_ms, to_ms) in [(3, 21), (17, 40), (250, 262)] {
                let at = |ms| SimTime::ZERO + SimDuration::from_millis(ms);
                faults.link_outage(SRC, 0, at(from_ms), at(to_ms));
            }
            sim.install_faults(&faults).expect("valid schedule");
            sim.run_until(SimTime::from_secs_f64(1.0));
            (sim.agent::<Sink>(SINK).arrivals.clone(), sim.events_processed())
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn malformed_fault_schedule_yields_err_not_panic() {
        let agents: Vec<Box<dyn Agent>> = vec![Box::new(Sink { arrivals: vec![] })];
        let mut sim = ShardedSimulator::new(1, &Partition::serial(1), agents);
        let mut faults = FaultSchedule::new();
        // A valid outage before the bad policy: all-or-nothing means even
        // the valid prefix must not be scheduled.
        faults.link_outage(AgentId(0), 0, SimTime::ZERO, SimTime::from_secs_f64(0.1));
        faults.control_fault_window(
            ControlFaultPolicy::drop_fraction(1.5),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
        );
        let err = sim.install_faults(&faults);
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
        // The same outage before a fault aimed at no agent.
        let mut faults = FaultSchedule::new();
        faults.link_outage(AgentId(0), 0, SimTime::ZERO, SimTime::from_secs_f64(0.1));
        faults.flush_at(AgentId(7), SimTime::ZERO);
        let err = sim.install_faults(&faults);
        assert!(matches!(err, Err(SimError::UnknownAgent(AgentId(7)))));
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.fault_stats().faults_applied, 0, "nothing half-installed");

        let mut faults = FaultSchedule::new();
        faults.push(
            SimTime::ZERO,
            GLOBAL,
            FaultAction::SetControlPolicy(ControlFaultPolicy::drop_fraction(f64::NAN)),
        );
        let err = sim.install_faults(&faults);
        assert!(matches!(err, Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn peak_queue_depth_tracks_high_water_mark() {
        let mut sim = host_and_sink(10, 1);
        assert_eq!(sim.peak_queue_depth(), 0);
        sim.run_until(SimTime::from_secs_f64(1.0));
        // 10 packets enter the port at start: 1 on the wire (tx-complete
        // event) while 9 wait in the queue discipline, so the event queue
        // high-water mark is small but nonzero.
        assert!(sim.peak_queue_depth() >= 2);
        assert!(sim.peak_queue_depth() as u64 <= sim.events_processed());
    }

    #[test]
    fn try_accessors_report_errors() {
        let sim = host_and_sink(0, 1);
        assert!(sim.try_agent::<Sink>(SINK).is_ok());
        assert!(matches!(sim.try_agent::<PortHost>(SINK), Err(SimError::AgentTypeMismatch { .. })));
        assert!(matches!(sim.try_agent::<Sink>(AgentId(99)), Err(SimError::UnknownAgent(_))));
    }
}

#[cfg(test)]
mod dispatch_tests {
    use super::*;
    use crate::packet::{FlowId, PacketKind};
    use crate::shard::{Partition, ShardedSimulator};
    use crate::time::SimDuration;

    /// Logs every dispatch it receives: `(time, flow)` for a packet, the
    /// token for a timer.
    struct Ping {
        peer: Option<AgentId>,
        packets: Vec<(SimTime, FlowId)>,
        timers: Vec<u64>,
    }
    impl Agent for Ping {
        fn start(&mut self, ctx: &mut Context<'_>) {
            if let Some(peer) = self.peer {
                let pkt = Packet::data(FlowId(3), ctx.self_id, peer, 500);
                ctx.deliver(peer, SimDuration::from_millis(1), pkt);
                ctx.schedule_timer(SimDuration::from_millis(2), 9);
            }
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.packets.push((ctx.now, p.flow));
            if p.kind == PacketKind::Data {
                let ack = Packet::ack_for(&p, 40);
                ctx.deliver(ack.dst, SimDuration::from_millis(1), ack);
            }
        }
        fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_>) {
            self.timers.push(token);
        }
    }

    #[test]
    fn every_dispatch_reaches_its_agent() {
        let (a, b) = (AgentId(0), AgentId(1));
        let ping =
            |peer| Box::new(Ping { peer, packets: vec![], timers: vec![] }) as Box<dyn Agent>;
        let mut sim =
            ShardedSimulator::new(1, &Partition::serial(2), vec![ping(Some(b)), ping(None)]);
        sim.run_until(SimTime::from_secs_f64(1.0));

        // data arrival + ack arrival + timer = 3 events.
        assert_eq!(sim.events_processed(), 3);
        let (pa, pb) = (sim.agent::<Ping>(a), sim.agent::<Ping>(b));
        assert_eq!(pb.packets, [(SimTime::from_secs_f64(0.001), FlowId(3))]);
        assert_eq!(pa.packets, [(SimTime::from_secs_f64(0.002), FlowId(3))]);
        assert_eq!((pa.timers.as_slice(), pb.timers.as_slice()), (&[9][..], &[][..]));
    }
}
