//! # pels-netsim — a discrete-event packet network simulator
//!
//! This crate is the ns2 substitute for the PELS reproduction: a
//! deterministic, packet-level discrete-event simulator providing everything
//! the paper's evaluation needs from the network:
//!
//! * a virtual clock and event heap with stable FIFO tie-breaking
//!   ([`event`], [`time`]),
//! * agents (hosts/routers) dispatched by id ([`sim`]),
//! * one engine, [`ShardedSimulator`]: a topology partitioner and a
//!   conservative windowed executor that runs every partition, one shard
//!   included, as shards whose results are byte-identical at every worker
//!   count ([`shard`]),
//! * output ports that serialize one packet at a time over links with a
//!   configurable rate and propagation delay ([`port`]),
//! * composable queue disciplines — DropTail, strict priority and
//!   deficit-weighted round robin ([`disc`]),
//! * a destination-routed store-and-forward router ([`router`]),
//! * simplified TCP Reno cross traffic ([`tcp`]) and CBR load generators
//!   ([`cbr`]),
//! * the fault vocabulary both stacks share — a fault window, one fate
//!   draw over a cumulative partition, one probability rule — and the
//!   simulator's injector: scripted link outages, bandwidth degradation,
//!   control-packet loss/duplication/reordering, and queue flushes
//!   ([`faults`], [`error`]),
//! * measurement helpers ([`stats`], [`hist`]),
//! * and the clock abstraction ([`clock`]) that lets the same agent state
//!   machines run under simulated or wall time (see the `pels-wire` crate).
//!
//! Determinism is a hard invariant: a run is a pure function of the topology
//! and the seed. Every agent draws from its own seeded
//! [`rand::rngs::StdRng`] stream, and simultaneous events fire in
//! scheduling order.
//!
//! ## Example: two hosts over a bottleneck
//!
//! Every run is a [`ShardedSimulator`]; [`Partition::serial`] puts all
//! agents on one queue, and agents are numbered by their place in the list.
//!
//! ```
//! use pels_netsim::disc::{DropTail, QueueLimit};
//! use pels_netsim::packet::{AgentId, FlowId};
//! use pels_netsim::port::Port;
//! use pels_netsim::router::{RouteTable, Router};
//! use pels_netsim::shard::{Partition, ShardedSimulator};
//! use pels_netsim::sim::Agent;
//! use pels_netsim::tcp::{TcpSink, TcpSource};
//! use pels_netsim::time::{Rate, SimDuration, SimTime};
//!
//! let (src, router, sink) = (AgentId(0), AgentId(1), AgentId(2));
//! let q = || Box::new(DropTail::new(QueueLimit::Packets(50)));
//! let delay = SimDuration::from_millis(5);
//! let mut routes = RouteTable::default();
//! routes.add(sink, 0).add(src, 1);
//!
//! let agents: Vec<Box<dyn Agent>> = vec![
//!     Box::new(TcpSource::new(
//!         Port::new(0, router, Rate::from_mbps(10.0), delay, q()),
//!         FlowId(1), sink, 1000, SimDuration::ZERO,
//!     )),
//!     Box::new(Router::new(vec![
//!         Port::new(0, sink, Rate::from_mbps(1.0), delay, q()),
//!         Port::new(1, src, Rate::from_mbps(10.0), delay, q()),
//!     ], routes)),
//!     Box::new(TcpSink::new(Port::new(0, router, Rate::from_mbps(10.0), delay, q()), FlowId(1))),
//! ];
//! let mut sim = ShardedSimulator::new(42, &Partition::serial(agents.len()), agents);
//! sim.run_until(SimTime::from_secs_f64(5.0));
//! assert!(sim.agent::<TcpSink>(sink).delivered() > 100);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cbr;
pub mod clock;
pub mod disc;
pub mod error;
pub mod event;
pub mod fasthash;
pub mod faults;
pub mod hist;
pub mod packet;
pub mod port;
pub mod router;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod time;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use error::SimError;
pub use faults::{ControlFaultPolicy, FaultAction, FaultSchedule, FaultStats};
pub use packet::{AgentId, Feedback, FlowId, Packet, PacketKind};
pub use shard::{Partition, ShardedSimulator, TopologyGraph};
pub use sim::{Agent, Context};
pub use time::{Rate, SimDuration, SimTime};
