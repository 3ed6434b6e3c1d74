//! Parallel deterministic execution: topology partitioning and the
//! conservative windowed [`ShardedSimulator`].
//!
//! The engine follows classic conservative parallel discrete-event
//! simulation (PDES): the agent/link graph is split into *shards*, each
//! shard owns its own event queue, and shards only interact through
//! link-delayed packet deliveries. Two partition shapes arise in practice:
//!
//! * **Connected components** ([`Partition::components`]): the
//!   capacity-proportional and wideband chain topologies decompose into N
//!   independent source→router→receiver chains. Components never exchange
//!   events, so each runs to the deadline with zero synchronization.
//! * **Delay cuts** ([`Partition::cut`]): a shared-bottleneck dumbbell is
//!   one component, but cutting the highest-propagation-delay link tier
//!   (the 5 ms bottleneck vs 1 ms access links) yields shards whose only
//!   interaction is at least `lookahead = min cross-shard link delay` in
//!   the future. Shards then advance in lock-step windows of `lookahead`
//!   simulated time, exchanging cross-shard packet arrivals between the
//!   two barriers that close each window: every shard has a mailbox, a
//!   window's senders hand it their outboxes before the first barrier (the
//!   first buffer is swapped in whole, later ones append), and between the
//!   barriers its owner swaps it for the emptied buffer of its event
//!   queue's lane, sorts it in place and installs it as the new lane
//!   ([`crate::event`], "The cross-shard lane"). A packet that crosses the
//!   cut is never pushed through the destination's heap unless it is still
//!   unfired when the next batch arrives
//!   ([`ShardedSimulator::cross_spills`]).
//!
//! # Determinism
//!
//! A run is a pure function of (topology, seed):
//!
//! * The partition itself is a pure function of the topology — the worker
//!   thread count only sizes the thread pool and **never** changes the
//!   shard layout, so `--workers 1` and `--workers 8` execute the exact
//!   same per-shard event schedules and produce byte-identical results.
//! * Each agent draws from its own stream, derived from the run seed and
//!   its agent id via SplitMix64 ([`stream_seed`]), so no draw can see the
//!   partition.
//! * Cross-shard events are exchanged only at window barriers: each
//!   shard takes exactly the events emitted in that window for its own
//!   agents and numbers them in `(fire time, source shard, source
//!   sequence)` order ([`sort_cross_events`]). The key is unique per
//!   event, so every destination queue sees one arrival order whatever
//!   the thread scheduling or group layout — and the sequence numbers it
//!   hands the batch are the ones scheduling it event by event would.
//! * A single-shard partition ([`Partition::serial`]) is one group of one
//!   shard with no lookahead, run as a components partition runs: one
//!   window to each deadline, one event queue. Against it, a cut of the
//!   same topology gives every agent the same history and the same draws,
//!   up to one kind of same-nanosecond tie: a cross-shard arrival is queued
//!   at the barrier, behind local events scheduled for that instant since it
//!   was emitted, where the one queue holds it ahead of them.
//!
//! The conservative window is safe because every cross-shard delivery made
//! at local time `τ < window_end` fires at `τ + link_delay ≥ τ + lookahead
//! ≥ window_end`: no event received at a barrier can be in a shard's past.

use crate::error::SimError;
use crate::event::Event;
use crate::faults::{FaultSchedule, FaultStats, GLOBAL};
use crate::packet::{AgentId, Packet};
use crate::sim::{Agent, Simulator};
use crate::time::{SimDuration, SimTime};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Derives the RNG seed for stream `index` (an agent id) from the run seed
/// via SplitMix64 — the standard stream-splitting construction:
/// statistically independent streams.
pub fn stream_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The agent/link graph of a scenario, used only for partitioning.
///
/// Links are undirected for partitioning purposes: a full-duplex link is
/// one edge, annotated with its one-way propagation delay (the smaller of
/// the two directions if they differ — callers add one edge per direction
/// in that case and the partitioner uses the minimum crossing delay as the
/// lookahead, which is conservative).
#[derive(Debug, Clone)]
pub struct TopologyGraph {
    n_agents: usize,
    edges: Vec<(AgentId, AgentId, SimDuration)>,
}

impl TopologyGraph {
    /// Creates a graph over `n_agents` agents with no links yet.
    pub fn new(n_agents: usize) -> Self {
        Self::with_capacity(n_agents, 0)
    }

    /// [`TopologyGraph::new`] with room for `n_links` links.
    pub fn with_capacity(n_agents: usize, n_links: usize) -> Self {
        TopologyGraph { n_agents, edges: Vec::with_capacity(n_links) }
    }

    /// Adds a full-duplex link between `a` and `b` with one-way
    /// propagation delay `delay`.
    pub fn add_link(&mut self, a: AgentId, b: AgentId, delay: SimDuration) {
        debug_assert!((a.0 as usize) < self.n_agents && (b.0 as usize) < self.n_agents);
        self.edges.push((a, b, delay));
    }

    /// Number of agents in the graph.
    pub fn n_agents(&self) -> usize {
        self.n_agents
    }

    /// The links added so far.
    pub fn edges(&self) -> &[(AgentId, AgentId, SimDuration)] {
        &self.edges
    }
}

/// An assignment of every agent to a shard, plus the synchronization
/// window (`lookahead`) multi-shard executions must respect.
///
/// Shard indices are contiguous, start at 0, and are numbered in order of
/// the smallest agent id they contain — a pure function of the topology,
/// never of thread scheduling.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Shard index of each agent, indexed by `AgentId`.
    pub shard_of: Vec<u32>,
    /// Number of shards.
    pub n_shards: usize,
    /// Minimum propagation delay of any cross-shard link: the conservative
    /// synchronization window. `None` when no link crosses shards (fully
    /// independent components, or a single shard).
    pub lookahead: Option<SimDuration>,
}

impl Partition {
    /// The trivial partition: everything in one shard, so a
    /// [`ShardedSimulator`] built from it runs every event through one queue.
    pub fn serial(n_agents: usize) -> Self {
        Partition { shard_of: vec![0; n_agents], n_shards: 1, lookahead: None }
    }

    /// Connected components of the graph. Components never exchange
    /// events, so `lookahead` is `None` and shards run without barriers.
    pub fn components(g: &TopologyGraph) -> Self {
        let mut uf = UnionFind::new(g.n_agents);
        for &(a, b, _) in g.edges() {
            uf.union(a.0 as usize, b.0 as usize);
        }
        let (shard_of, n_shards) = uf.into_shards();
        Partition { shard_of, n_shards, lookahead: None }
    }

    /// Splits a connected graph by removing link-delay tiers from the
    /// largest delay downward until the remainder disconnects. The removed
    /// links that end up crossing shards define the lookahead (their
    /// minimum delay). Falls back to [`Partition::serial`] when the graph
    /// cannot be split with a positive lookahead.
    pub fn cut(g: &TopologyGraph) -> Self {
        let mut tiers: Vec<SimDuration> = g.edges().iter().map(|&(_, _, d)| d).collect();
        tiers.sort_unstable();
        tiers.dedup();
        // Remove tiers from the top down; stop at the first cut that
        // disconnects the graph.
        while let Some(&cut_below) = tiers.last() {
            let mut uf = UnionFind::new(g.n_agents);
            for &(a, b, d) in g.edges() {
                if d < cut_below {
                    uf.union(a.0 as usize, b.0 as usize);
                }
            }
            let (shard_of, n_shards) = uf.into_shards();
            if n_shards > 1 {
                let lookahead = g
                    .edges()
                    .iter()
                    .filter(|&&(a, b, _)| shard_of[a.0 as usize] != shard_of[b.0 as usize])
                    .map(|&(_, _, d)| d)
                    .min();
                match lookahead {
                    Some(d) if !d.is_zero() => {
                        return Partition { shard_of, n_shards, lookahead: Some(d) }
                    }
                    // A zero-delay cross link admits no conservative
                    // window: run serial.
                    Some(_) => return Partition::serial(g.n_agents()),
                    None => return Partition { shard_of, n_shards, lookahead: None },
                }
            }
            tiers.pop();
        }
        Partition::serial(g.n_agents())
    }

    /// The default strategy: independent components when the graph has
    /// them (zero-synchronization parallelism), otherwise a delay cut of
    /// the single component, otherwise serial.
    pub fn auto(g: &TopologyGraph) -> Self {
        let p = Self::components(g);
        if p.n_shards > 1 {
            return p;
        }
        Self::cut(g)
    }
}

/// Union-find with deterministic shard numbering.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, i: usize) -> usize {
        let mut root = i;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        // Path compression.
        let mut cur = i;
        while cur != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        // Lower root wins: keeps numbering a function of the graph alone.
        let (lo, hi) = if ra <= rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo as u32;
    }

    /// Consumes the structure, numbering components 0.. in order of their
    /// smallest member.
    fn into_shards(mut self) -> (Vec<u32>, usize) {
        let n = self.parent.len();
        let mut shard_of = vec![u32::MAX; n];
        let mut next = 0u32;
        for i in 0..n {
            let root = self.find(i);
            if shard_of[root] == u32::MAX {
                shard_of[root] = next;
                next += 1;
            }
            shard_of[i] = shard_of[root];
        }
        (shard_of, next as usize)
    }
}

/// Maps global agent ids to (shard, local slab slot). Shared read-only by
/// every shard.
#[derive(Debug)]
pub struct ShardMap {
    /// Shard index per agent, indexed by `AgentId`.
    pub shard_of: Vec<u32>,
    /// Local slab index per agent within its owning shard.
    pub local_of: Vec<u32>,
}

/// A packet delivery crossing a shard boundary: buffered in the source
/// shard's outbox until the next window barrier, then an entry of the
/// destination queue's lane until it fires.
#[derive(Debug, Clone)]
pub struct CrossEvent {
    /// Absolute fire time (`emission time + link delay`).
    pub time: SimTime,
    /// Source shard — part of the deterministic merge key.
    pub src_shard: u32,
    /// Emission sequence within the source shard until the barrier sort;
    /// the destination queue's sequence number once installed in its lane.
    pub seq: u64,
    /// Receiving agent.
    pub dst: AgentId,
    /// The arriving packet.
    pub packet: Packet,
}

/// Sorts a barrier batch into the canonical deterministic merge order:
/// `(fire time, source shard, source sequence)`. The order is a pure
/// function of the per-shard histories, so the destination queue assigns
/// the same FIFO tie-break sequence numbers regardless of how many worker
/// threads produced the batch or in what order they posted it. The key is
/// unique per event, so the unstable sort (in place, no merge buffer of
/// 112-byte events at every barrier) gives the one possible order.
pub fn sort_cross_events(batch: &mut [CrossEvent]) {
    batch.sort_unstable_by_key(|e| (e.time, e.src_shard, e.seq));
}

/// A simulator split into shards that execute in parallel with
/// bit-reproducible results. See the module docs for the execution model.
///
/// # Examples
///
/// Two disconnected ping-pong pairs run as two shards:
///
/// ```
/// use pels_netsim::packet::AgentId;
/// use pels_netsim::shard::{Partition, ShardedSimulator, TopologyGraph};
/// use pels_netsim::time::{SimDuration, SimTime};
/// # use pels_netsim::sim::{Agent, Context};
/// # use pels_netsim::packet::{FlowId, Packet};
/// # struct Echo { peer: Option<AgentId>, got: u32 }
/// # impl Agent for Echo {
/// #     fn start(&mut self, ctx: &mut Context<'_>) {
/// #         if let Some(peer) = self.peer {
/// #             let pkt = Packet::data(FlowId(0), ctx.self_id, peer, 500);
/// #             ctx.deliver(peer, SimDuration::from_millis(5), pkt);
/// #         }
/// #     }
/// #     fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) { self.got += 1; }
/// # }
/// let mut graph = TopologyGraph::new(4);
/// graph.add_link(AgentId(0), AgentId(1), SimDuration::from_millis(5));
/// graph.add_link(AgentId(2), AgentId(3), SimDuration::from_millis(5));
/// let partition = Partition::auto(&graph);
/// assert_eq!(partition.n_shards, 2);
///
/// let agents: Vec<Box<dyn Agent>> = vec![
///     Box::new(Echo { peer: Some(AgentId(1)), got: 0 }),
///     Box::new(Echo { peer: None, got: 0 }),
///     Box::new(Echo { peer: Some(AgentId(3)), got: 0 }),
///     Box::new(Echo { peer: None, got: 0 }),
/// ];
/// let mut sim = ShardedSimulator::new(42, &partition, agents);
/// sim.set_workers(2);
/// sim.run_until(SimTime::from_secs_f64(1.0));
/// assert_eq!(sim.agent::<Echo>(AgentId(1)).got, 1);
/// assert_eq!(sim.agent::<Echo>(AgentId(3)).got, 1);
/// ```
#[derive(Debug)]
pub struct ShardedSimulator {
    shards: Vec<Simulator>,
    map: Arc<ShardMap>,
    lookahead: Option<SimDuration>,
    now: SimTime,
    workers: usize,
    barriers: u64,
    cross_events: u64,
    /// Total worker threads spawned so far. Stays 0 while
    /// [`ShardedSimulator::effective_workers`] is 1: single-worker windows
    /// run in the calling thread.
    threads_spawned: u64,
}

impl ShardedSimulator {
    /// Builds a sharded simulator over `agents` (indexed by global
    /// `AgentId` in order) using `partition`. Agents draw from per-agent
    /// streams at any shard count (see [`stream_seed`]).
    ///
    /// # Panics
    ///
    /// Panics if `partition.shard_of.len() != agents.len()`.
    pub fn new(seed: u64, partition: &Partition, agents: Vec<Box<dyn Agent>>) -> Self {
        assert_eq!(
            partition.shard_of.len(),
            agents.len(),
            "partition covers {} agents, got {}",
            partition.shard_of.len(),
            agents.len()
        );
        let n_shards = partition.n_shards.max(1);
        // A zero lookahead admits no window: treated as no cross link at all
        // (`Partition::cut` never produces one), so a delivery that crosses
        // shards anyway panics instead of waiting for a barrier that never
        // comes.
        let lookahead = partition.lookahead.filter(|d| !d.is_zero());
        let mut counters = vec![0u32; n_shards];
        let mut local_of = vec![0u32; agents.len()];
        for (g, &s) in partition.shard_of.iter().enumerate() {
            local_of[g] = counters[s as usize];
            counters[s as usize] += 1;
        }
        let map = Arc::new(ShardMap { shard_of: partition.shard_of.clone(), local_of });

        // Shards of a cut post to each other; components never do.
        let n_outboxes = if lookahead.is_some() { n_shards } else { 0 };
        let mut shards: Vec<Simulator> = (0..n_shards)
            .map(|s| Simulator::new(seed, s as u32, map.clone(), n_outboxes))
            .collect();
        for (g, a) in agents.into_iter().enumerate() {
            shards[map.shard_of[g] as usize].add_agent(AgentId(g as u32), a);
        }
        ShardedSimulator {
            shards,
            map,
            lookahead,
            now: SimTime::ZERO,
            workers: 1,
            barriers: 0,
            cross_events: 0,
            threads_spawned: 0,
        }
    }

    /// Sets the number of worker threads used for multi-shard windows.
    /// This affects wall-clock time only — the event schedule is fixed by
    /// the partition, so results are byte-identical at every worker count.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured worker thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker threads a window execution will actually use: the
    /// configured count clamped to the shard count (a shard is the unit
    /// of parallelism; extra threads would have nothing to run).
    pub fn effective_workers(&self) -> usize {
        self.workers.min(self.shards.len()).max(1)
    }

    /// Number of shards in the partition.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The synchronization window, when shards exchange events.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Window barriers executed so far.
    pub fn barriers(&self) -> u64 {
        self.barriers
    }

    /// Cross-shard events exchanged so far.
    pub fn cross_events(&self) -> u64 {
        self.cross_events
    }

    /// Cross-shard events still unfired when the next batch reached their
    /// shard, and so re-scheduled through its heap instead of popped from
    /// the lane: a cross link slower than the lookahead (a port's
    /// serialisation time counts), or a `run_until` deadline that cut a
    /// window short.
    pub fn cross_spills(&self) -> u64 {
        self.shards.iter().map(Simulator::cross_spills).sum()
    }

    /// Current simulation time (the committed horizon all shards reached).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(Simulator::events_processed).sum()
    }

    /// Deepest single-shard event-queue high-water mark, lane entries
    /// included. (Shards peak at different instants, so the sum would
    /// overstate the simultaneous working set.)
    pub fn peak_queue_depth(&self) -> usize {
        self.shards.iter().map(Simulator::peak_queue_depth).max().unwrap_or(0)
    }

    /// Typed access to an agent by global id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown or the agent is not a `T`.
    pub fn agent<T: Agent>(&self, id: AgentId) -> &T {
        self.try_agent(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Typed access to an agent by global id.
    pub fn try_agent<T: Agent>(&self, id: AgentId) -> Result<&T, SimError> {
        self.owning_shard(id)?.try_agent(id)
    }

    fn shard_index(&self, id: AgentId) -> Result<usize, SimError> {
        self.map.shard_of.get(id.0 as usize).map(|&s| s as usize).ok_or(SimError::UnknownAgent(id))
    }

    fn owning_shard(&self, id: AgentId) -> Result<&Simulator, SimError> {
        Ok(&self.shards[self.shard_index(id)?])
    }

    /// Schedules every fault in `schedule` into the owning shard's queue;
    /// simulator-global actions (control-fault policies) are broadcast to
    /// every shard, each of which applies them to its own arrivals. Faults
    /// are ordinary events: they interleave deterministically with traffic.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any action is invalid or any
    /// fault is timed before [`ShardedSimulator::now`], and
    /// [`SimError::UnknownAgent`] if one targets no agent. Everything is
    /// checked before anything is scheduled, so a bad schedule never
    /// half-installs.
    pub fn install_faults(&mut self, schedule: &FaultSchedule) -> Result<(), SimError> {
        schedule.validate()?;
        for ev in schedule.events() {
            if ev.at < self.now {
                return Err(SimError::InvalidConfig(format!(
                    "a fault at {:?} is before the simulation's current time {:?}",
                    ev.at, self.now
                )));
            }
            if ev.agent != GLOBAL {
                self.shard_index(ev.agent)?;
            }
        }
        for ev in schedule.events() {
            let event = Event::Fault { agent: ev.agent, action: ev.action };
            if ev.agent == GLOBAL {
                for shard in &mut self.shards {
                    shard.inject(ev.at, event.clone());
                }
            } else {
                let s = self.shard_index(ev.agent)?;
                self.shards[s].inject(ev.at, event);
            }
        }
        Ok(())
    }

    /// Counters for applied faults and control-plane packet mangling,
    /// summed over shards (a broadcast global action counts once).
    pub fn fault_stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for fs in self.shards.iter().map(Simulator::fault_stats) {
            total.faults_applied += fs.faults_applied;
            total.control_dropped += fs.control_dropped;
            total.control_duplicated += fs.control_duplicated;
            total.control_reordered += fs.control_reordered;
        }
        total
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed), advancing shards in conservative windows
    /// and exchanging cross-shard events between two barriers per window
    /// (`run_group`).
    ///
    /// Contiguous runs of shards form one worker group each. Groups are
    /// spawned once per call; a single group runs on the calling thread.
    /// A partition without lookahead (one shard, or independent
    /// components) runs one window to the deadline.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of an agent in any shard.
    pub fn run_until(&mut self, deadline: SimTime) {
        let chunk = self.shards.len().div_ceil(self.effective_workers());
        // The last group absorbs the remainder, so there can be fewer
        // groups than requested workers; the barrier counts actual groups.
        let n_groups = self.shards.len().div_ceil(chunk);
        let n_mailboxes = if self.lookahead.is_some() { self.shards.len() } else { 0 };
        let shared = Windows {
            start: self.now,
            deadline,
            window: self.lookahead.unwrap_or(SimDuration::ZERO),
            chunk,
            barrier: Barrier::new(n_groups),
            mailboxes: (0..n_mailboxes).map(|_| Mutex::default()).collect(),
            moved_total: AtomicU64::new(0),
            failed: AtomicBool::new(false),
        };
        let windows = if n_groups == 1 {
            run_group(&mut self.shards, 0, &shared)
        } else {
            self.threads_spawned += n_groups as u64;
            std::thread::scope(|scope| {
                let shared = &shared;
                let handles: Vec<_> = self
                    .shards
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(g, group)| scope.spawn(move || run_group(group, g, shared)))
                    .collect();
                // Every group runs the same number of windows.
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                    .fold(0, u64::max)
            })
        };
        self.now = deadline.max(self.now);
        self.barriers += windows;
        self.cross_events += shared.moved_total.into_inner();
    }
}

/// What the worker groups of one [`ShardedSimulator::run_until`] call share.
struct Windows {
    start: SimTime,
    deadline: SimTime,
    /// The lookahead; zero for a partition without one (one shard or
    /// independent components), which takes a single window to the
    /// deadline.
    window: SimDuration,
    /// Shards per group: shard `s` belongs to group `s / chunk`.
    chunk: usize,
    barrier: Barrier,
    /// Cross-shard events emitted in the current window, by destination
    /// shard. Empty when `window` is zero: components exchange nothing.
    mailboxes: Vec<Mutex<Vec<CrossEvent>>>,
    /// Cross-shard events moved since the call began.
    moved_total: AtomicU64,
    /// Some group's agent panicked. Written only before the first barrier
    /// of a window and read only right after it, so every group leaves in
    /// the same window and none is left parked on a barrier.
    failed: AtomicBool,
}

/// Drives the contiguous shards `group` (worker group `g`) through every
/// window; returns the number of windows run.
///
/// Per window each group runs its shards to the window end — exclusive
/// while windows are interior (events at exactly the end belong to the
/// next window, after the merge), inclusive on the deadline window — and
/// posts their outboxes to the destination shards' mailboxes. Between the
/// two barriers every mailbox holds exactly the events emitted in this
/// window for its shard: the shard swaps it for its lane's emptied buffer
/// (what the last window left unfired goes through the heap), sorts it by
/// `(time, src_shard, seq)` and installs it as the lane. That key is unique
/// per event, so each destination queue sees the same arrival order — and
/// assigns the same FIFO tie-break numbers — however many groups produced
/// the batch.
///
/// The stop decision reads the cumulative moved counter between the
/// barriers, where no `fetch_add` can be in flight (the next one lies
/// beyond the second barrier), so every group reads the same value.
fn run_group(group: &mut [Simulator], g: usize, w: &Windows) -> u64 {
    let base = g * w.chunk;
    let mut panicked = None;
    let (mut now, mut prev_total, mut windows) = (w.start, 0u64, 0u64);
    loop {
        let target = if w.window.is_zero() {
            w.deadline
        } else {
            w.deadline.min(now.saturating_add(w.window))
        };
        let last = target == w.deadline;
        attempt(&mut panicked, || {
            let mut moved = 0u64;
            for shard in group.iter_mut() {
                shard.run_window(target, last);
                for (outbox, mailbox) in shard.outboxes_mut().iter_mut().zip(&w.mailboxes) {
                    if outbox.is_empty() {
                        continue;
                    }
                    moved += outbox.len() as u64;
                    let mut mailbox = mailbox.lock().expect(MAILBOX);
                    if mailbox.is_empty() {
                        // The first poster's buffer becomes the mailbox: on
                        // a two-shard cut no batch is ever copied.
                        std::mem::swap(&mut *mailbox, outbox);
                    } else {
                        mailbox.append(outbox);
                    }
                }
            }
            w.moved_total.fetch_add(moved, Ordering::SeqCst);
        });
        // A group that panicked (in either half of an earlier window, or
        // just now) keeps meeting the barriers and reports here.
        if panicked.is_some() {
            w.failed.store(true, Ordering::SeqCst);
        }
        w.barrier.wait();
        if w.failed.load(Ordering::SeqCst) {
            break;
        }
        let total = w.moved_total.load(Ordering::SeqCst);
        windows += 1;
        if last && total == prev_total {
            // Nothing moved in the deadline window: every mailbox is empty
            // and no group will post again, so the second barrier has
            // nothing to order.
            break;
        }
        prev_total = total;
        attempt(&mut panicked, || {
            for (shard, mailbox) in group.iter_mut().zip(&w.mailboxes[base..]) {
                // Nobody posts between the barriers. With nothing to
                // install, what waits in the lane may as well stay there.
                if mailbox.lock().expect(MAILBOX).is_empty() {
                    continue;
                }
                let mut batch = shard.take_lane();
                std::mem::swap(&mut *mailbox.lock().expect(MAILBOX), &mut batch);
                sort_cross_events(&mut batch);
                shard.install_lane(batch, target);
            }
        });
        w.barrier.wait();
        now = target;
    }
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
    for shard in group.iter_mut() {
        shard.advance_clock_to(w.deadline);
    }
    windows
}

/// Mailbox guards live for one `append` or `swap`, neither of which panics.
const MAILBOX: &str = "no group panics while holding a mailbox";

/// Runs `f` unless this group has already panicked; a panic in `f` is
/// kept for later instead of unwinding past the barriers the other groups
/// are about to wait on.
fn attempt(panicked: &mut Option<Box<dyn Any + Send>>, f: impl FnOnce()) {
    if panicked.is_none() {
        *panicked = catch_unwind(AssertUnwindSafe(f)).err();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::sim::Context;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    #[test]
    fn a_cross_event_is_at_most_112_bytes() {
        // Outboxes, barrier batches and lanes hold every packet that crosses
        // a cut by value: an 88-byte packet and the merge key.
        let size = std::mem::size_of::<CrossEvent>();
        assert!(size <= 112, "{size}");
    }

    /// Sends `n` packets to `peer` at start, replies to everything it
    /// receives, and records arrival times.
    struct Chatter {
        peer: AgentId,
        n: u32,
        delay: SimDuration,
        got: Vec<(SimTime, u64)>,
    }

    impl Agent for Chatter {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for seq in 0..self.n as u64 {
                let pkt = Packet::data(FlowId(0), ctx.self_id, self.peer, 500).with_seq(seq);
                ctx.deliver(self.peer, self.delay, pkt);
            }
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.got.push((ctx.now, p.seq));
            if p.kind == crate::packet::PacketKind::Data {
                let ack = Packet::ack_for(&p, 40);
                ctx.deliver(ack.dst, self.delay, ack);
            }
        }
    }

    fn pair(n: u32, delay: SimDuration) -> Vec<Box<dyn Agent>> {
        vec![
            Box::new(Chatter { peer: AgentId(1), n, delay, got: vec![] }),
            Box::new(Chatter { peer: AgentId(0), n: 0, delay, got: vec![] }),
        ]
    }

    #[test]
    fn stream_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            seen.insert(seed);
            for i in 0..64 {
                assert!(seen.insert(stream_seed(seed, i)), "collision at seed={seed} i={i}");
            }
        }
    }

    #[test]
    fn components_partition_disconnected_graph() {
        let mut g = TopologyGraph::new(6);
        g.add_link(AgentId(0), AgentId(1), ms(1));
        g.add_link(AgentId(1), AgentId(2), ms(1));
        g.add_link(AgentId(3), AgentId(4), ms(1));
        let p = Partition::components(&g);
        // {0,1,2}, {3,4}, {5}: three components, numbered by smallest id.
        assert_eq!(p.n_shards, 3);
        assert_eq!(p.shard_of, vec![0, 0, 0, 1, 1, 2]);
        assert_eq!(p.lookahead, None);
    }

    #[test]
    fn cut_splits_dumbbell_at_bottleneck() {
        // src0, src1 - R1 ==5ms== R2 - dst0, dst1 (access links 1 ms).
        let mut g = TopologyGraph::new(6);
        let (r1, r2) = (AgentId(0), AgentId(1));
        g.add_link(r1, r2, ms(5));
        g.add_link(AgentId(2), r1, ms(1));
        g.add_link(AgentId(3), r1, ms(1));
        g.add_link(r2, AgentId(4), ms(1));
        g.add_link(r2, AgentId(5), ms(1));
        let p = Partition::auto(&g);
        assert_eq!(p.n_shards, 2);
        assert_eq!(p.lookahead, Some(ms(5)));
        assert_eq!(p.shard_of[r1.0 as usize], p.shard_of[2]);
        assert_eq!(p.shard_of[r2.0 as usize], p.shard_of[4]);
        assert_ne!(p.shard_of[r1.0 as usize], p.shard_of[r2.0 as usize]);
    }

    #[test]
    fn cut_refuses_zero_delay_graphs() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), SimDuration::ZERO);
        let p = Partition::cut(&g);
        assert_eq!(p.n_shards, 1);
    }

    #[test]
    fn a_single_shard_runs_one_window_per_call_and_matches_a_cut() {
        let run = |p: &Partition| {
            let mut sim = ShardedSimulator::new(7, p, pair(5, ms(3)));
            for secs in [0.5, 1.0] {
                sim.run_until(SimTime::from_secs_f64(secs));
            }
            sim
        };
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(3));
        let (serial, cut) = (run(&Partition::serial(2)), run(&Partition::cut(&g)));

        assert_eq!((serial.n_shards(), cut.n_shards()), (1, 2));
        assert_eq!(serial.barriers(), 2, "one window to each deadline");
        assert_eq!((serial.cross_events(), serial.threads_spawned), (0, 0));
        assert_eq!(serial.now(), SimTime::from_secs_f64(1.0));
        assert_eq!(serial.events_processed(), cut.events_processed());
        for a in [AgentId(0), AgentId(1)] {
            assert_eq!(serial.agent::<Chatter>(a).got, cut.agent::<Chatter>(a).got);
        }
    }

    #[test]
    fn windowed_execution_moves_cross_events_and_counts_barriers() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let mut sim = ShardedSimulator::new(3, &p, pair(4, ms(4)));
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.cross_events(), 8, "4 data + 4 acks cross the cut");
        assert!(sim.barriers() >= 25, "0.1 s / 4 ms lookahead");
        assert_eq!(sim.now(), SimTime::from_secs_f64(0.1));
    }

    #[test]
    fn component_shards_match_serial_per_agent_history() {
        // Two disconnected pairs; one-queue and component-sharded runs must
        // agree on every per-agent observation (each pair is causally
        // independent, and every agent draws its own stream).
        let agents = || -> Vec<Box<dyn Agent>> {
            vec![
                Box::new(Chatter { peer: AgentId(1), n: 3, delay: ms(2), got: vec![] }),
                Box::new(Chatter { peer: AgentId(0), n: 0, delay: ms(2), got: vec![] }),
                Box::new(Chatter { peer: AgentId(3), n: 5, delay: ms(7), got: vec![] }),
                Box::new(Chatter { peer: AgentId(2), n: 0, delay: ms(7), got: vec![] }),
            ]
        };
        let mut serial = ShardedSimulator::new(9, &Partition::serial(4), agents());
        serial.run_until(SimTime::from_secs_f64(1.0));

        let mut g = TopologyGraph::new(4);
        g.add_link(AgentId(0), AgentId(1), ms(2));
        g.add_link(AgentId(2), AgentId(3), ms(7));
        let p = Partition::auto(&g);
        assert_eq!(p.n_shards, 2);
        let mut sharded = ShardedSimulator::new(9, &p, agents());
        sharded.set_workers(2);
        sharded.run_until(SimTime::from_secs_f64(1.0));

        for i in 0..4u32 {
            assert_eq!(
                sharded.agent::<Chatter>(AgentId(i)).got,
                serial.agent::<Chatter>(AgentId(i)).got,
                "agent {i} history differs"
            );
        }
        assert_eq!(sharded.events_processed(), serial.events_processed());
    }

    #[test]
    fn group_count_follows_the_chunking_not_the_request() {
        // 4 shards, 3 workers: chunks of 2 leave only 2 groups; the
        // barrier must size to the actual group count, not the request.
        let mut g = TopologyGraph::new(8);
        for pair_idx in 0..4u32 {
            g.add_link(AgentId(pair_idx * 2), AgentId(pair_idx * 2 + 1), ms(3));
        }
        let p = Partition::components(&g);
        assert_eq!(p.n_shards, 4);
        let agents: Vec<Box<dyn Agent>> = (0..4u32)
            .flat_map(|i| {
                [
                    Box::new(Chatter { peer: AgentId(i * 2 + 1), n: 2, delay: ms(3), got: vec![] })
                        as Box<dyn Agent>,
                    Box::new(Chatter { peer: AgentId(i * 2), n: 0, delay: ms(3), got: vec![] }),
                ]
            })
            .collect();
        let mut sim = ShardedSimulator::new(5, &p, agents);
        sim.set_workers(3);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.threads_spawned, 2, "2 groups of 2 shards");
        for i in 0..4u32 {
            assert_eq!(sim.agent::<Chatter>(AgentId(i * 2 + 1)).got.len(), 2);
        }
    }

    #[test]
    fn workers_are_spawned_once_per_call_not_per_window() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let mut sim = ShardedSimulator::new(11, &p, pair(5, ms(4)));
        sim.set_workers(1);
        sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(sim.threads_spawned, 0, "one group runs on the caller");
        assert_eq!(sim.effective_workers(), 1);

        let mut sim = ShardedSimulator::new(11, &p, pair(5, ms(4)));
        sim.set_workers(2);
        for call in 1..=3u64 {
            sim.run_until(sim.now() + SimDuration::from_millis(500));
            assert_eq!(sim.threads_spawned, 2 * call, "2 groups x {call} calls");
        }
        assert!(sim.barriers() >= 375, "1.5 s / 4 ms lookahead");
    }

    #[test]
    fn a_global_fault_window_counts_once_across_shards() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let mut sim = ShardedSimulator::new(3, &Partition::cut(&g), pair(2, ms(4)));
        let mut faults = FaultSchedule::new();
        faults.control_fault_window(
            crate::faults::ControlFaultPolicy::drop_fraction(1.0),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
        );
        sim.install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(2.0));
        let stats = sim.fault_stats();
        assert_eq!(stats.faults_applied, 2, "set + clear, as a serial run counts them");
        assert_eq!(stats.control_dropped, 2, "both ACKs, dropped in shard 0");
    }

    #[test]
    fn a_control_policy_sees_lane_acks_as_it_sees_local_ones() {
        // 200 ACKs come back across the cut in the lane; on one queue
        // the same ACKs are ordinary heap arrivals. The policy draws once
        // per arriving ACK from the destination's stream, so the same ACKs
        // in the same order mean the same drops, copies and delays — and
        // the same (time, seq) history at the sender.
        let policy = crate::faults::ControlFaultPolicy {
            drop: 0.25,
            duplicate: 0.25,
            reorder: 0.25,
            reorder_delay: ms(3),
        };
        let mut faults = FaultSchedule::new();
        faults.control_fault_window(policy, SimTime::ZERO, SimTime::from_secs_f64(1.0));
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let run = |p: &Partition| {
            let mut sim = ShardedSimulator::new(3, p, pair(200, ms(4)));
            sim.install_faults(&faults).expect("valid schedule");
            sim.run_until(SimTime::from_secs_f64(2.0));
            sim
        };
        let (cut, serial) = (run(&Partition::cut(&g)), run(&Partition::serial(2)));
        assert_eq!((cut.n_shards(), serial.n_shards()), (2, 1));
        assert_eq!(cut.cross_events(), 400, "every data packet and every ACK rode a lane");
        let stats = cut.fault_stats();
        assert!(
            stats.control_dropped > 20
                && stats.control_duplicated > 20
                && stats.control_reordered > 20,
            "{stats:?}"
        );
        assert_eq!(stats, serial.fault_stats());
        assert_eq!(cut.agent::<Chatter>(AgentId(0)).got, serial.agent::<Chatter>(AgentId(0)).got);
    }

    #[test]
    fn arrivals_that_outlive_a_window_spill_through_the_heap_and_still_arrive_in_order() {
        // Shards {0} and {1, 2}: the 2 ms link sets the lookahead, the 7 ms
        // link from 0 to 2 is slower, so what 0 sends to 2 is still in 2's
        // lane when the next three barriers install their batches.
        let mut g = TopologyGraph::new(3);
        g.add_link(AgentId(0), AgentId(1), ms(2));
        g.add_link(AgentId(0), AgentId(2), ms(7));
        g.add_link(AgentId(1), AgentId(2), ms(1));
        let p = Partition::cut(&g);
        assert_eq!((p.shard_of.clone(), p.lookahead), (vec![0, 1, 1], Some(ms(2))));
        let agents: Vec<Box<dyn Agent>> = vec![
            Box::new(Chatter { peer: AgentId(2), n: 3, delay: ms(7), got: vec![] }),
            Box::new(Chatter { peer: AgentId(0), n: 3, delay: ms(2), got: vec![] }),
            Box::new(Chatter { peer: AgentId(0), n: 0, delay: ms(7), got: vec![] }),
        ];
        let mut sim = ShardedSimulator::new(1, &p, agents);
        sim.run_until(SimTime::from_secs_f64(0.1));
        assert_eq!(sim.cross_events(), 12, "3 data + 3 acks each way over both links");
        assert!(sim.cross_spills() >= 3, "the 7 ms packets outlive their window");
        let at = |n| SimTime::ZERO + ms(n);
        assert_eq!(sim.agent::<Chatter>(AgentId(2)).got, vec![(at(7), 0), (at(7), 1), (at(7), 2)]);
        // 1's data at 2 ms, then 2's ACKs at 14 ms; 0 ACKs 1's data itself.
        let seen: Vec<SimTime> = sim.agent::<Chatter>(AgentId(0)).got.iter().map(|g| g.0).collect();
        assert_eq!(seen, vec![at(2), at(2), at(2), at(14), at(14), at(14)]);
    }

    /// Passes each packet on to `next` while its hop budget (`seq`) lasts,
    /// logging when each arrived.
    struct Relay {
        next: AgentId,
        delay: SimDuration,
        inject: bool,
        arrivals: Vec<SimTime>,
    }

    impl Agent for Relay {
        fn start(&mut self, ctx: &mut Context<'_>) {
            if self.inject {
                let pkt = Packet::data(FlowId(0), ctx.self_id, self.next, 500).with_seq(5);
                ctx.deliver(self.next, self.delay, pkt);
            }
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.arrivals.push(ctx.now);
            if p.seq > 0 {
                let seq = p.seq - 1;
                ctx.deliver(self.next, self.delay, p.with_seq(seq));
            }
        }
    }

    #[test]
    fn a_packet_crosses_the_cut_in_time_order() {
        // A ring 0 -1ms- 1 -4ms- 2 -1ms- 3 -4ms- 0, cut at the 4 ms tier
        // into shards {0, 1} and {2, 3}; one packet makes a lap and a half.
        let delays = [ms(1), ms(4), ms(1), ms(4)];
        let mut g = TopologyGraph::new(4);
        for (i, &d) in delays.iter().enumerate() {
            g.add_link(AgentId(i as u32), AgentId((i as u32 + 1) % 4), d);
        }
        let p = Partition::cut(&g);
        assert_eq!(p.shard_of, vec![0, 0, 1, 1]);
        let agents: Vec<Box<dyn Agent>> = delays
            .iter()
            .enumerate()
            .map(|(i, &delay)| {
                let next = AgentId((i as u32 + 1) % 4);
                Box::new(Relay { next, delay, inject: i == 0, arrivals: vec![] }) as Box<dyn Agent>
            })
            .collect();
        let mut sim = ShardedSimulator::new(1, &p, agents);
        sim.run_until(SimTime::from_secs_f64(1.0));

        let mut hops: Vec<(u64, u32)> = (0..4)
            .flat_map(|a| {
                let arrivals = &sim.agent::<Relay>(AgentId(a)).arrivals;
                arrivals.iter().map(move |t| (t.as_nanos() / 1_000_000, a)).collect::<Vec<_>>()
            })
            .collect();
        hops.sort_unstable();
        assert_eq!(hops.len() as u64, sim.events_processed());
        assert_eq!(hops, vec![(1, 1), (5, 2), (6, 3), (10, 0), (11, 1), (15, 2)]);
    }

    /// Panics on the first packet it receives.
    struct Bomb;

    impl Agent for Bomb {
        fn on_packet(&mut self, _p: Packet, _ctx: &mut Context<'_>) {
            panic!("bomb went off");
        }
    }

    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging_it() {
        // Shard 1 panics in the window after the first exchange while
        // shard 0's worker is headed for (or parked on) the barrier.
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let agents: Vec<Box<dyn Agent>> = vec![
                Box::new(Chatter { peer: AgentId(1), n: 1, delay: ms(4), got: vec![] }),
                Box::new(Bomb),
            ];
            let mut sim = ShardedSimulator::new(1, &p, agents);
            sim.set_workers(2);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                sim.run_until(SimTime::from_secs_f64(1.0));
            }));
            let message = outcome.err().and_then(|p| p.downcast_ref::<&str>().copied());
            done_tx.send(message).expect("test thread waits");
        });
        let message = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("run_until must return or panic, not park on the barrier");
        assert_eq!(message, Some("bomb went off"), "the agent's own panic must surface");
        runner.join().expect("runner caught the panic");
    }

    #[test]
    fn faults_route_to_owning_shards() {
        let mut g = TopologyGraph::new(2);
        g.add_link(AgentId(0), AgentId(1), ms(4));
        let p = Partition::cut(&g);
        let mut sim = ShardedSimulator::new(3, &p, pair(2, ms(4)));
        let mut faults = FaultSchedule::new();
        faults.control_fault_window(
            crate::faults::ControlFaultPolicy::drop_fraction(1.0),
            SimTime::ZERO,
            SimTime::from_secs_f64(1.0),
        );
        sim.install_faults(&faults).expect("valid schedule");
        sim.run_until(SimTime::from_secs_f64(2.0));
        // Data still arrives at 1, but every ACK back to 0 is dropped by
        // shard 0's control policy.
        assert_eq!(sim.agent::<Chatter>(AgentId(1)).got.len(), 2);
        assert_eq!(sim.agent::<Chatter>(AgentId(0)).got.len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::sim::Context;
    use proptest::prelude::*;
    use rand::Rng;

    const LOCAL: SimDuration = SimDuration::from_millis(1);
    const CROSS: SimDuration = SimDuration::from_millis(4);
    /// A chord slower than two windows: what it carries is still unfired
    /// in the destination's lane when the next batches arrive.
    const SLOW: SimDuration = SimDuration::from_millis(9);

    /// Floods `burst` packets down every link at start and forwards each
    /// arrival down an RNG-chosen link until its hop budget (`seq`) runs
    /// out. With only two link delays, arrival times tie constantly, so
    /// the recorded order exposes the merge's tie-breaks, and the RNG
    /// draws and the sender's stamps (the count it had sent, carried as the
    /// flow id) expose any change in per-agent event order.
    struct Gossip {
        links: Vec<(AgentId, SimDuration)>,
        burst: u32,
        sent: u32,
        got: Vec<(SimTime, u32, AgentId)>,
    }

    impl Gossip {
        fn send(&mut self, to: usize, hops: u64, ctx: &mut Context<'_>) {
            let (peer, delay) = self.links[to];
            self.sent += 1;
            let pkt = Packet::data(FlowId(self.sent), ctx.self_id, peer, 500).with_seq(hops);
            ctx.deliver(peer, delay, pkt);
        }
    }

    impl Agent for Gossip {
        fn start(&mut self, ctx: &mut Context<'_>) {
            for to in 0..self.links.len() {
                for _ in 0..self.burst {
                    self.send(to, 5, ctx);
                }
            }
        }
        fn on_packet(&mut self, p: Packet, ctx: &mut Context<'_>) {
            self.got.push((ctx.now, p.flow.0, p.src));
            if p.seq > 0 && !self.links.is_empty() {
                let to = ctx.rng().gen_range(0..self.links.len());
                self.send(to, p.seq - 1, ctx);
            }
        }
    }

    /// Clusters of 1 ms chains; when `connected`, a chain of 4 ms links
    /// (plus `extra` chords, 9 ms when flagged slow) joins the clusters'
    /// first agents, so `Partition::auto` cuts exactly there with a 4 ms
    /// lookahead. Otherwise the clusters are independent components.
    fn cluster_graph(
        sizes: &[usize],
        connected: bool,
        extra: &[(usize, usize, bool)],
    ) -> (TopologyGraph, Vec<Vec<(AgentId, SimDuration)>>) {
        let firsts: Vec<u32> = sizes
            .iter()
            .scan(0u32, |next, &n| {
                let first = *next;
                *next += n as u32;
                Some(first)
            })
            .collect();
        let n_agents: usize = sizes.iter().sum();
        let mut graph = TopologyGraph::new(n_agents);
        let mut links = vec![Vec::new(); n_agents];
        let mut link = |a: u32, b: u32, d: SimDuration| {
            graph.add_link(AgentId(a), AgentId(b), d);
            links[a as usize].push((AgentId(b), d));
            links[b as usize].push((AgentId(a), d));
        };
        for (&first, &n) in firsts.iter().zip(sizes) {
            for i in 1..n as u32 {
                link(first + i - 1, first + i, LOCAL);
            }
        }
        if connected {
            let s = sizes.len();
            let chain = (1..s).map(|c| (c - 1, c, CROSS));
            let chords =
                extra.iter().map(|&(a, b, slow)| (a % s, b % s, if slow { SLOW } else { CROSS }));
            for (a, b, delay) in chain.chain(chords) {
                if a != b {
                    link(firsts[a], firsts[b], delay);
                }
            }
        }
        (graph, links)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]
        /// Any worker count reproduces the one-worker run under any
        /// `run_until` chunking: same per-agent (time, stamp, sender)
        /// histories, same event count. (Both sides share the chunking:
        /// windows are laid from each call's start, so call boundaries
        /// are part of the schedule.) Slices of 1–39 ms against a 4 ms
        /// lookahead end mid-window more often than not, and 9 ms chords
        /// keep arrivals in a lane across several barriers: both leave
        /// lane entries for the next barrier to re-schedule through the
        /// heap, and the count of those must not see the workers either.
        #[test]
        fn any_worker_count_matches_one_worker(
            sizes in collection::vec(1usize..=3, 2..=6),
            connected in any::<bool>(),
            extra in collection::vec((0usize..6, 0usize..6, any::<bool>()), 0..4),
            burst in 1u32..=3,
            workers in 1usize..=8,
            chunks_ms in collection::vec(1u64..40, 1..6),
            seed in any::<u64>(),
        ) {
            let (graph, links) = cluster_graph(&sizes, connected, &extra);
            let p = Partition::auto(&graph);
            prop_assert_eq!(p.n_shards, sizes.len());
            prop_assert_eq!(p.lookahead, connected.then_some(CROSS));
            let build = || {
                let agents = links
                    .iter()
                    .map(|l| Box::new(Gossip { links: l.clone(), burst, sent: 0, got: vec![] }) as Box<dyn Agent>)
                    .collect();
                ShardedSimulator::new(seed, &p, agents)
            };
            let histories = |sim: &ShardedSimulator| -> Vec<Vec<(SimTime, u32, AgentId)>> {
                (0..links.len() as u32).map(|a| sim.agent::<Gossip>(AgentId(a)).got.clone()).collect()
            };
            let run = |workers: usize| {
                let mut sim = build();
                sim.set_workers(workers);
                for &ms in &chunks_ms {
                    sim.run_until(sim.now() + SimDuration::from_millis(ms));
                }
                sim
            };
            let (reference, sim) = (run(1), run(workers));
            prop_assert_eq!(sim.now(), reference.now());
            prop_assert_eq!(sim.events_processed(), reference.events_processed());
            prop_assert_eq!(sim.cross_events(), reference.cross_events());
            prop_assert_eq!(sim.cross_spills(), reference.cross_spills());
            let got = histories(&sim);
            prop_assert_eq!(&got, &histories(&reference));

            // The merge order itself, not just its repeatability: while
            // every cross link has the same delay, cross-shard arrivals
            // that tie on time were emitted in one window and must appear
            // in source-shard order. (A slow chord's arrival can tie with
            // one emitted two windows later, which rightly fires behind.)
            let uniform = extra.iter().all(|&(_, _, slow)| !slow);
            for (agent, history) in got.iter().enumerate().filter(|_| uniform) {
                let cross: Vec<_> = history
                    .iter()
                    .filter(|(_, _, src)| p.shard_of[src.0 as usize] != p.shard_of[agent])
                    .collect();
                for pair in cross.windows(2) {
                    let (t0, _, s0) = pair[0];
                    let (t1, _, s1) = pair[1];
                    prop_assert!(
                        t0 < t1 || p.shard_of[s0.0 as usize] <= p.shard_of[s1.0 as usize],
                        "agent {agent}: tie at {t0:?} delivered shard {s1:?} before {s0:?}"
                    );
                }
            }
        }
    }
}
