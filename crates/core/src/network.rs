//! The network model and the one builder that turns it into agents.
//!
//! A [`TopoModel`] names routers, bidirectional router links (with at most
//! one *designated AQM egress* per router), single-homed hosts and traffic
//! pairs with explicit router paths. [`Network::append`] lowers a model to
//! agents, appending them after what is already built: the model's routers
//! first, then its hosts, in model order, together with the link graph the
//! shard partitioner reads and the [`RoleIds`] of every agent. Both
//! front-ends build through it:
//!
//! - the dumbbell ([`crate::scenario::Scenario`]) is one two-router model,
//!   and [`crate::scenario::Layout::ChainPerFlow`] appends one such model
//!   per flow;
//! - `pels_topo`'s generated topologies are one model each, which
//!   `pels_topo::model::compile` validates before appending.
//!
//! A router's ports are its designated egress at port 0 (an [`AqmRouter`]'s
//! AQM bottleneck port), then its other router-link directions in link
//! order, then its hosts in host order. Routes are destination-based and
//! come from the pairs' paths, which is conflict-free because every
//! traffic endpoint is a host of its own and paths are simple.

use crate::gamma::GammaConfig;
use crate::receiver::PelsReceiver;
use crate::roles::RoleIds;
use crate::router::{AqmConfig, AqmRouter};
use crate::scenario::{TCP_PACKET_BYTES, VIDEO_PACKET_BYTES};
use crate::source::{CcSpec, PelsSource, SourceConfig, SourceMode};
use crate::SimError;
use pels_fgs::frame::VideoTrace;
use pels_netsim::cbr::{CbrConfig, CbrSource, NullSink, PoissonSource};
use pels_netsim::disc::{DropTail, QueueLimit};
use pels_netsim::error::invalid_config;
use pels_netsim::packet::{AgentId, FlowId};
use pels_netsim::port::Port;
use pels_netsim::router::{RouteTable, Router};
use pels_netsim::shard::TopologyGraph;
use pels_netsim::sim::Agent;
use pels_netsim::tcp::{TcpSink, TcpSource};
use pels_netsim::time::{Rate, SimDuration, SimTime};
use std::sync::Arc;

/// A bidirectional link between two routers. Rates and AQM designation are
/// per direction; the propagation delay is shared (and must be positive so
/// the shard partitioner always has a conservative lookahead available).
#[derive(Debug, Clone)]
pub struct RouterLink {
    /// One endpoint (model router index).
    pub a: usize,
    /// The other endpoint.
    pub b: usize,
    /// One-way propagation delay (must be positive).
    pub delay: SimDuration,
    /// Link rate in the `a -> b` direction.
    pub rate_ab: Rate,
    /// Link rate in the `b -> a` direction.
    pub rate_ba: Rate,
    /// Queue limit (packets) for plain directions of this link.
    pub queue: usize,
    /// Whether `a -> b` is router `a`'s designated AQM egress.
    pub aqm_ab: bool,
    /// Whether `b -> a` is router `b`'s designated AQM egress.
    pub aqm_ba: bool,
    /// Per-flow budget multiplier applied by capacity finalization to AQM
    /// directions of this link (heterogeneous bottleneck tightness).
    pub aqm_factor: f64,
}

impl RouterLink {
    /// A plain (undesignated) link with rates to be finalized later.
    pub fn plain(a: usize, b: usize, delay: SimDuration) -> Self {
        RouterLink {
            a,
            b,
            delay,
            rate_ab: Rate::ZERO,
            rate_ba: Rate::ZERO,
            queue: 200,
            aqm_ab: false,
            aqm_ba: false,
            aqm_factor: 1.0,
        }
    }
}

/// A single-homed endpoint host: its attachment router and access link.
#[derive(Debug, Clone)]
pub struct Host {
    /// Attachment router (model index).
    pub router: usize,
    /// Access link rate (both directions).
    pub rate: Rate,
    /// One-way access propagation delay.
    pub delay: SimDuration,
    /// Access queue limit, packets, at the router (the host's own output
    /// queue holds at least 400).
    pub queue: usize,
}

/// What a traffic pair carries.
#[derive(Debug, Clone)]
pub enum TrafficKind {
    /// A PELS video flow streaming the network's trace.
    Video {
        /// Flow id.
        flow: u32,
        /// Start time relative to simulation start.
        start: SimDuration,
        /// Optional departure time (flash-crowd schedules).
        stop: Option<SimDuration>,
        /// Congestion controller and its gains.
        cc: CcSpec,
        /// γ-controller gains.
        gamma: GammaConfig,
        /// Marking mode (PELS vs best-effort comparator).
        mode: SourceMode,
        /// ARQ: the source answers NACKs with retransmissions.
        arq: bool,
    },
    /// A greedy TCP Reno flow (Internet class).
    Tcp {
        /// Flow id.
        flow: u32,
    },
    /// Constant-bit-rate (or Poisson) background traffic into a null sink.
    Cbr {
        /// Flow id.
        flow: u32,
        /// Mean emission rate.
        rate: Rate,
        /// Wire class (PELS color or Internet class).
        class: u8,
        /// Poisson inter-packet gaps instead of constant.
        poisson: bool,
        /// Start time relative to simulation start.
        start: SimDuration,
        /// Absolute stop time (`SimTime::MAX` = never).
        stop: SimTime,
    },
}

/// One traffic source/destination pair and the router path between them.
#[derive(Debug, Clone)]
pub struct TrafficPair {
    /// What the pair carries.
    pub kind: TrafficKind,
    /// Source host (model index); must attach to `path[0]`.
    pub src_host: usize,
    /// Destination host (model index); must attach to `path.last()`.
    pub dst_host: usize,
    /// Simple router path from source to destination attachment.
    pub path: Vec<usize>,
    /// Optional distinct return path for ACK/feedback traffic (from
    /// `path.last()` back to `path[0]`); defaults to the reversed `path`.
    /// Used where the reversed data path would cross a designated AQM
    /// egress (e.g. fat-tree uplinks).
    pub ack_path: Option<Vec<usize>>,
}

/// A network plus its traffic matrix.
#[derive(Debug, Clone)]
pub struct TopoModel {
    /// Family name (report label).
    pub family: String,
    /// Number of routers; model indices are `0..n_routers`.
    pub n_routers: usize,
    /// Router-to-router links.
    pub links: Vec<RouterLink>,
    /// Endpoint hosts.
    pub hosts: Vec<Host>,
    /// Traffic pairs (video first, in flow order).
    pub pairs: Vec<TrafficPair>,
}

impl TopoModel {
    /// Indices of `pairs` carrying video, in flow order.
    pub fn video_pairs(&self) -> Vec<usize> {
        (0..self.pairs.len())
            .filter(|&i| matches!(self.pairs[i].kind, TrafficKind::Video { .. }))
            .collect()
    }
}

/// The per-run choices every agent of a network shares.
#[derive(Debug, Clone)]
pub struct NetworkOptions {
    /// AQM configuration of every router with a designated egress.
    pub aqm: AqmConfig,
    /// Whether agents retain full time series.
    pub keep_series: bool,
    /// The video every source streams (looped), shared by all of them.
    pub trace: Arc<VideoTrace>,
    /// Wire packet size for video.
    pub packet_bytes: u32,
    /// Optional playout deadline at every video receiver.
    pub playout_deadline: Option<SimDuration>,
    /// Whether video receivers NACK missing packets.
    pub nack: bool,
}

/// Agents in global-id order, the link graph for the shard partitioner,
/// and the role ids, as [`Network::append`] builds them.
pub struct Network {
    /// Agents in global-id order.
    pub agents: Vec<Box<dyn Agent>>,
    /// The link graph for the shard partitioner.
    pub graph: TopologyGraph,
    /// Role ids (`routers` in model order, model after model).
    pub ids: RoleIds,
    /// `append`'s plan of each router of the model being appended, and of
    /// each host (its router port, pair and role): kept from model to model
    /// so appending a chain allocates only what its agents keep.
    routers: Vec<RouterPlan>,
    hosts: Vec<(usize, Option<(usize, bool)>)>,
}

/// A router being wired: how many ports and routes it gets, its designated
/// egress, its other ports and its routes.
#[derive(Default)]
struct RouterPlan {
    n_ports: usize,
    n_routes: usize,
    egress: Option<Port>,
    ports: Vec<Port>,
    routes: RouteTable,
}

impl Network {
    /// An empty network with room for `n_agents` agents and `n_links`
    /// links (router links and access links) in its graph.
    pub fn new(n_agents: usize, n_links: usize) -> Self {
        Network {
            agents: Vec::with_capacity(n_agents),
            graph: TopologyGraph::with_capacity(n_agents, n_links),
            ids: RoleIds::default(),
            routers: Vec::new(),
            hosts: Vec::new(),
        }
    }

    /// Appends `model`'s agents, links and role ids after what is already
    /// built. Agent construction draws no randomness. Fails with
    /// [`SimError::InvalidConfig`] on a hop with no link, a host in no pair
    /// or in two, or an AQM configuration the router rejects; the structural
    /// checks of a hand-built model are `pels_topo::model::validate`'s.
    pub fn append(&mut self, model: &TopoModel, opts: &NetworkOptions) -> Result<(), SimError> {
        let Network { agents, graph, ids, routers, hosts } = self;
        let base = agents.len();
        let n_routers = model.n_routers;
        let router_id = |r: usize| AgentId((base + r) as u32);
        let host_id = |h: usize| AgentId((base + n_routers + h) as u32);
        let q = |limit: usize| Box::new(DropTail::new(QueueLimit::Packets(limit)));

        // Every router's ports and routes, each sized once.
        routers.clear();
        routers.resize_with(n_routers, RouterPlan::default);
        let ends = model.links.iter().flat_map(|l| [l.a, l.b]);
        for r in ends.chain(model.hosts.iter().map(|h| h.router)) {
            routers[r].n_ports += 1;
        }
        for pair in &model.pairs {
            let back = pair.ack_path.as_ref().unwrap_or(&pair.path);
            for &r in pair.path.iter().chain(back) {
                routers[r].n_routes += 1;
            }
        }
        for plan in routers.iter_mut() {
            plan.ports = Vec::with_capacity(plan.n_ports);
            plan.routes = RouteTable::with_capacity(plan.n_routes);
        }

        // Ports: the designated egress is port 0, then the other router-link
        // directions in link order, then the hosts in host order.
        let directions = model
            .links
            .iter()
            .flat_map(|l| [(l, l.a, l.b, l.rate_ab, l.aqm_ab), (l, l.b, l.a, l.rate_ba, l.aqm_ba)]);
        for (l, from, to, rate, _) in directions.clone().filter(|d| d.4) {
            routers[from].egress = Some(Port::new(0, router_id(to), rate, l.delay, q(1)));
        }
        let mut add_port = |r: usize, to: AgentId, rate: Rate, delay: SimDuration, queue| {
            let plan = &mut routers[r];
            let index = usize::from(plan.egress.is_some()) + plan.ports.len();
            plan.ports.push(Port::new(index, to, rate, delay, q(queue)));
            index
        };
        for (l, from, to, rate, _) in directions.filter(|d| !d.4) {
            add_port(from, router_id(to), rate, l.delay, l.queue);
        }
        // Each host's port at its router, and its pair and role. One pair
        // per host and simple paths keep the routes below conflict-free.
        hosts.clear();
        hosts.extend(model.hosts.iter().enumerate().map(|(h, host)| {
            (add_port(host.router, host_id(h), host.rate, host.delay, host.queue), None)
        }));
        for (pi, pair) in model.pairs.iter().enumerate() {
            for (h, is_src) in [(pair.src_host, true), (pair.dst_host, false)] {
                if hosts[h].1.replace((pi, is_src)).is_some() {
                    return Err(invalid_config(format!("host {h} used by more than one pair")));
                }
            }
        }

        // Destination-based routes: each pair's destination along its path,
        // its source back along the ACK path (the reversed path by default).
        // A hop leaves by the port whose peer is the next router.
        let mut route = |hops: &[usize], reversed: bool, dst: usize| -> Result<(), SimError> {
            let at = |k: usize| if reversed { hops[hops.len() - 1 - k] } else { hops[k] };
            for k in 0..hops.len() {
                let (r, plan) = (at(k), &mut routers[at(k)]);
                let port = match (k + 1 < hops.len()).then(|| at(k + 1)) {
                    None => hosts[dst].0,
                    Some(next) => (plan.egress.iter().chain(&plan.ports))
                        .find(|p| p.peer == router_id(next))
                        .map(|p| p.index)
                        .ok_or_else(|| invalid_config(format!("no link for hop {r} -> {next}")))?,
                };
                plan.routes.add(host_id(dst), port);
            }
            Ok(())
        };
        for pair in &model.pairs {
            route(&pair.path, false, pair.dst_host)?;
            match &pair.ack_path {
                Some(back) => route(back, false, pair.src_host)?,
                None => route(&pair.path, true, pair.src_host)?,
            }
        }

        // Router agents, in model order.
        for (r, plan) in routers.drain(..).enumerate() {
            ids.routers.push(router_id(r));
            let RouterPlan { egress, ports, routes, .. } = plan;
            match egress {
                Some(egress) => {
                    let router =
                        AqmRouter::try_new(egress, ports, routes, opts.aqm, opts.keep_series)?;
                    agents.push(Box::new(router));
                    ids.aqm_routers.push(router_id(r));
                }
                None => agents.push(Box::new(Router::new(ports, routes))),
            }
        }

        // Host agents, in host order (= global id order after the routers).
        for (h, host) in model.hosts.iter().enumerate() {
            let Some((pi, is_src)) = hosts[h].1 else {
                return Err(invalid_config(format!("host {h} belongs to no traffic pair")));
            };
            let pair = &model.pairs[pi];
            let dst = host_id(pair.dst_host);
            let port =
                Port::new(0, router_id(host.router), host.rate, host.delay, q(host.queue.max(400)));
            let agent: Box<dyn Agent> = match (&pair.kind, is_src) {
                (&TrafficKind::Video { flow, start, stop, cc, gamma, mode, arq }, true) => {
                    ids.sources.push(host_id(h));
                    let cfg = SourceConfig {
                        flow: FlowId(flow),
                        dst,
                        start_at: start,
                        stop_at: stop.map(|d| SimTime::ZERO + d),
                        trace: Arc::clone(&opts.trace),
                        cc,
                        gamma,
                        packet_bytes: opts.packet_bytes,
                        mode,
                        arq,
                        keep_series: opts.keep_series,
                    };
                    Box::new(PelsSource::new(cfg, port))
                }
                (&TrafficKind::Video { flow, .. }, false) => {
                    ids.receivers.push(host_id(h));
                    let mut rx = PelsReceiver::new(FlowId(flow), port, opts.keep_series);
                    if let Some(deadline) = opts.playout_deadline {
                        rx = rx.with_deadline(deadline);
                    }
                    if opts.nack {
                        rx = rx.with_nack();
                    }
                    Box::new(rx)
                }
                (&TrafficKind::Tcp { flow }, true) => {
                    ids.tcp_sources.push(host_id(h));
                    let flow = FlowId(flow);
                    Box::new(TcpSource::new(port, flow, dst, TCP_PACKET_BYTES, SimDuration::ZERO))
                }
                (&TrafficKind::Tcp { flow }, false) => {
                    ids.tcp_sinks.push(host_id(h));
                    Box::new(TcpSink::new(port, FlowId(flow)))
                }
                (&TrafficKind::Cbr { flow, rate, class, poisson, start, stop }, true) => {
                    let cfg = CbrConfig::new(FlowId(flow), dst, rate, VIDEO_PACKET_BYTES, class);
                    let cfg = CbrConfig { start_at: start, stop_at: stop, ..cfg };
                    if poisson {
                        Box::new(PoissonSource::new(cfg, port))
                    } else {
                        Box::new(CbrSource::new(cfg, port))
                    }
                }
                (&TrafficKind::Cbr { .. }, false) => Box::new(NullSink),
            };
            agents.push(agent);
        }

        // The partition graph: router links, then host access links.
        for l in &model.links {
            graph.add_link(router_id(l.a), router_id(l.b), l.delay);
        }
        for (h, host) in model.hosts.iter().enumerate() {
            graph.add_link(host_id(h), router_id(host.router), host.delay);
        }
        Ok(())
    }
}
