//! The intermediate topology model and its compiler.
//!
//! Generators ([`crate::gen`]) produce a [`TopoModel`]: routers, bidirectional
//! router links (with at most one *designated AQM egress* per router),
//! single-homed hosts, and traffic pairs with explicit router paths.
//! [`compile`] lowers the model to `netsim` agents plus the link graph the
//! shard partitioner consumes, enforcing the engine's invariants:
//!
//! - an [`AqmRouter`] has exactly one AQM bottleneck port and it must be
//!   port 0 — the model's "designated egress";
//! - every PELS video flow must cross at least one designated egress,
//!   otherwise it would never receive router feedback and the stale-feedback
//!   watchdog would decay it to the floor;
//! - destination-based routes must be conflict-free, which holds because
//!   every traffic endpoint is a unique host agent and paths are simple.

use crate::spec::TopoSpec;
use pels_core::receiver::PelsReceiver;
use pels_core::roles::RoleIds;
use pels_core::router::AqmRouter;
use pels_core::scenario::{default_trace, TCP_PACKET_BYTES, VIDEO_PACKET_BYTES};
use pels_core::source::{PelsSource, SourceConfig};
use pels_core::SimError;
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
use std::collections::HashMap;
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
    /// Access queue limit, packets.
    pub queue: usize,
}

/// What a traffic pair carries.
#[derive(Debug, Clone)]
pub enum TrafficKind {
    /// A PELS video flow (MKC + γ, default trace).
    Video {
        /// Flow id.
        flow: u32,
        /// Start time relative to simulation start.
        start: SimDuration,
        /// Optional departure time (flash-crowd schedules).
        stop: Option<SimDuration>,
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

/// A generated topology plus its traffic matrix.
#[derive(Debug, Clone)]
pub struct TopoModel {
    /// Generator family name (report label).
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

    /// Whether the directed hop `from -> to` is a designated AQM egress.
    pub fn is_designated(&self, from: usize, to: usize) -> bool {
        self.links.iter().any(|l| {
            (l.a == from && l.b == to && l.aqm_ab) || (l.b == from && l.a == to && l.aqm_ba)
        })
    }
}

/// One designated AQM egress and the load crossing it: the unit of the
/// multi-bottleneck max-min validation.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// Router owning the AQM port (model index).
    pub router: usize,
    /// The designated next hop.
    pub next_hop: usize,
    /// Raw link rate of the designated direction.
    pub raw_rate: Rate,
    /// PELS share of the raw rate (WRR split).
    pub pels_capacity: Rate,
    /// Video flow indices (position in the video-pair order) crossing it.
    pub video_flows: Vec<usize>,
    /// Steady PELS-class background load (never-stopping CBR) crossing it,
    /// bits/s. Finite bursts are excluded: the max-min prediction targets
    /// the end-of-run stationary point.
    pub cbr_load_bps: f64,
    /// TCP flows whose data path crosses the designated direction. The
    /// stationary reference does not model TCP, so these widen the
    /// validation tolerance tier rather than enter the water-fill.
    pub tcp_flows: usize,
}

/// A compiled topology, ready for the sharded engine.
pub struct CompiledTopo {
    /// Agents in global-id order (routers first, then hosts).
    pub agents: Vec<Box<dyn Agent>>,
    /// The link graph for the shard partitioner.
    pub graph: TopologyGraph,
    /// Role ids (`routers` is indexed by model router index).
    pub ids: RoleIds,
    /// Designated AQM egresses with their crossing load, sorted by router.
    pub bottlenecks: Vec<Bottleneck>,
}

/// Which neighbor a router port faces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Neighbor {
    Router(usize),
    Host(usize),
}

/// Compiles `model` into agents, the partition graph, and the bottleneck
/// table. Fails with [`SimError::InvalidConfig`] on any violated invariant
/// (multiple designations on one router, a zero-delay link, a video flow
/// missing AQM feedback, a non-simple path, a reused host, ...).
pub fn compile(model: &TopoModel, spec: &TopoSpec) -> Result<CompiledTopo, SimError> {
    validate(model)?;
    let n_routers = model.n_routers;
    let n_hosts = model.hosts.len();
    let router_id = |r: usize| AgentId(r as u32);
    let host_id = |h: usize| AgentId((n_routers + h) as u32);
    let q = |limit: usize| Box::new(DropTail::new(QueueLimit::Packets(limit)));

    // --- Port layout per router: designated egress first (port 0), then
    // remaining router links in link order, then hosts in host order. ---
    let mut port_of: HashMap<(usize, Neighbor), usize> = HashMap::new();
    // (neighbor agent, rate, delay, queue, is_designated) per router.
    type PortPlan = (AgentId, Rate, SimDuration, usize, bool);
    let mut port_plans: Vec<Vec<PortPlan>> = vec![Vec::new(); n_routers];
    let push_port = |plans: &mut Vec<Vec<PortPlan>>,
                     port_of: &mut HashMap<(usize, Neighbor), usize>,
                     r: usize,
                     nb: Neighbor,
                     to: AgentId,
                     rate: Rate,
                     delay: SimDuration,
                     queue: usize,
                     designated: bool| {
        let idx = plans[r].len();
        plans[r].push((to, rate, delay, queue, designated));
        port_of.insert((r, nb), idx);
    };
    // Designated egresses claim port 0 first.
    for l in &model.links {
        if l.aqm_ab {
            push_port(
                &mut port_plans,
                &mut port_of,
                l.a,
                Neighbor::Router(l.b),
                router_id(l.b),
                l.rate_ab,
                l.delay,
                l.queue,
                true,
            );
        }
        if l.aqm_ba {
            push_port(
                &mut port_plans,
                &mut port_of,
                l.b,
                Neighbor::Router(l.a),
                router_id(l.a),
                l.rate_ba,
                l.delay,
                l.queue,
                true,
            );
        }
    }
    for l in &model.links {
        if !l.aqm_ab {
            push_port(
                &mut port_plans,
                &mut port_of,
                l.a,
                Neighbor::Router(l.b),
                router_id(l.b),
                l.rate_ab,
                l.delay,
                l.queue,
                false,
            );
        }
        if !l.aqm_ba {
            push_port(
                &mut port_plans,
                &mut port_of,
                l.b,
                Neighbor::Router(l.a),
                router_id(l.a),
                l.rate_ba,
                l.delay,
                l.queue,
                false,
            );
        }
    }
    for (h, host) in model.hosts.iter().enumerate() {
        push_port(
            &mut port_plans,
            &mut port_of,
            host.router,
            Neighbor::Host(h),
            host_id(h),
            host.rate,
            host.delay,
            host.queue,
            false,
        );
    }

    // --- Destination-based routes from the traffic paths. ---
    let mut routes: Vec<HashMap<AgentId, usize>> = vec![HashMap::new(); n_routers];
    let add_route = |routes: &mut Vec<HashMap<AgentId, usize>>,
                     r: usize,
                     dst: AgentId,
                     port: usize|
     -> Result<(), SimError> {
        match routes[r].insert(dst, port) {
            Some(prev) if prev != port => Err(invalid_config(format!(
                "conflicting routes at router {r} for {dst:?}: ports {prev} vs {port}"
            ))),
            _ => Ok(()),
        }
    };
    for pair in &model.pairs {
        let path = &pair.path;
        let m = path.len();
        let dst_agent = host_id(pair.dst_host);
        let src_agent = host_id(pair.src_host);
        // Forward: route the destination host along the path.
        for i in 0..m {
            let next = if i + 1 < m {
                Neighbor::Router(path[i + 1])
            } else {
                Neighbor::Host(pair.dst_host)
            };
            let port = *port_of.get(&(path[i], next)).ok_or_else(|| {
                invalid_config(format!("no link for hop {:?} -> {next:?}", path[i]))
            })?;
            add_route(&mut routes, path[i], dst_agent, port)?;
        }
        // Reverse: route the source host back, along `ack_path` when given.
        let back: Vec<usize> = match &pair.ack_path {
            Some(p) => p.clone(),
            None => path.iter().rev().copied().collect(),
        };
        for i in 0..back.len() {
            let next = if i + 1 < back.len() {
                Neighbor::Router(back[i + 1])
            } else {
                Neighbor::Host(pair.src_host)
            };
            let port = *port_of.get(&(back[i], next)).ok_or_else(|| {
                invalid_config(format!("no link for ack hop {:?} -> {next:?}", back[i]))
            })?;
            add_route(&mut routes, back[i], src_agent, port)?;
        }
    }

    // --- Router agents. ---
    let mut agents: Vec<Box<dyn Agent>> = Vec::with_capacity(n_routers + n_hosts);
    let mut ids =
        RoleIds { routers: (0..n_routers).map(router_id).collect(), ..Default::default() };
    for (r, plan) in port_plans.iter().enumerate() {
        let mut table = RouteTable::new();
        let mut entries: Vec<(AgentId, usize)> = routes[r].iter().map(|(&d, &p)| (d, p)).collect();
        entries.sort_unstable_by_key(|&(d, _)| d.0);
        for (dst, port) in entries {
            table.add(dst, port);
        }
        let designated = plan.first().is_some_and(|p| p.4);
        if designated {
            let (to, rate, delay, _, _) = plan[0];
            let bottleneck_port = Port::new(0, to, rate, delay, q(1));
            let reverse: Vec<Port> = plan[1..]
                .iter()
                .enumerate()
                .map(|(i, &(to, rate, delay, queue, _))| {
                    Port::new(i + 1, to, rate, delay, q(queue))
                })
                .collect();
            agents.push(Box::new(AqmRouter::try_new(
                bottleneck_port,
                reverse,
                table,
                spec.aqm(),
                spec.keep_series(),
            )?));
            ids.aqm_routers.push(router_id(r));
        } else {
            let ports: Vec<Port> = plan
                .iter()
                .enumerate()
                .map(|(i, &(to, rate, delay, queue, _))| Port::new(i, to, rate, delay, q(queue)))
                .collect();
            agents.push(Box::new(Router::new(ports, table)));
        }
    }

    // --- Host agents, in host order (= global id order after routers). ---
    let trace = Arc::new(default_trace());
    // Role of every host: (pair index, is_source).
    let mut role: Vec<Option<(usize, bool)>> = vec![None; n_hosts];
    for (pi, pair) in model.pairs.iter().enumerate() {
        for (h, is_src) in [(pair.src_host, true), (pair.dst_host, false)] {
            if role[h].replace((pi, is_src)).is_some() {
                return Err(invalid_config(format!("host {h} used by more than one pair")));
            }
        }
    }
    for (h, host) in model.hosts.iter().enumerate() {
        let Some((pi, is_src)) = role[h] else {
            return Err(invalid_config(format!("host {h} belongs to no traffic pair")));
        };
        let pair = &model.pairs[pi];
        let port =
            Port::new(0, router_id(host.router), host.rate, host.delay, q(host.queue.max(400)));
        let agent: Box<dyn Agent> = match (&pair.kind, is_src) {
            (&TrafficKind::Video { flow, start, stop }, true) => {
                let sc = SourceConfig {
                    flow: FlowId(flow),
                    dst: host_id(pair.dst_host),
                    start_at: start,
                    stop_at: stop.map(|d| SimTime::ZERO + d),
                    trace: Arc::clone(&trace),
                    cc: Default::default(),
                    gamma: Default::default(),
                    packet_bytes: VIDEO_PACKET_BYTES,
                    mode: pels_core::source::SourceMode::Pels,
                    arq: false,
                    keep_series: spec.keep_series(),
                };
                ids.sources.push(host_id(h));
                Box::new(PelsSource::new(sc, port))
            }
            (&TrafficKind::Video { flow, .. }, false) => {
                ids.receivers.push(host_id(h));
                Box::new(PelsReceiver::new(FlowId(flow), port, spec.keep_series()))
            }
            (&TrafficKind::Tcp { flow }, true) => {
                ids.tcp_sources.push(host_id(h));
                Box::new(TcpSource::new(
                    port,
                    FlowId(flow),
                    host_id(pair.dst_host),
                    TCP_PACKET_BYTES,
                    SimDuration::ZERO,
                ))
            }
            (&TrafficKind::Tcp { flow }, false) => {
                ids.tcp_sinks.push(host_id(h));
                Box::new(TcpSink::new(port, FlowId(flow)))
            }
            (&TrafficKind::Cbr { flow, rate, class, poisson, start, stop }, true) => {
                let cfg = CbrConfig {
                    flow: FlowId(flow),
                    dst: host_id(pair.dst_host),
                    rate,
                    packet_bytes: VIDEO_PACKET_BYTES,
                    class,
                    start_at: start,
                    stop_at: stop,
                };
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

    // --- The partition graph: router links + host access links. ---
    let mut graph = TopologyGraph::new(n_routers + n_hosts);
    for l in &model.links {
        graph.add_link(router_id(l.a), router_id(l.b), l.delay);
    }
    for (h, host) in model.hosts.iter().enumerate() {
        graph.add_link(host_id(h), router_id(host.router), host.delay);
    }

    Ok(CompiledTopo { agents, graph, ids, bottlenecks: bottlenecks(model, spec) })
}

/// The bottleneck table: every designated egress, its PELS capacity, and
/// the video flows / steady CBR load crossing it.
pub fn bottlenecks(model: &TopoModel, spec: &TopoSpec) -> Vec<Bottleneck> {
    let video = model.video_pairs();
    let mut out = Vec::new();
    for l in &model.links {
        for (from, to, rate, designated) in
            [(l.a, l.b, l.rate_ab, l.aqm_ab), (l.b, l.a, l.rate_ba, l.aqm_ba)]
        {
            if !designated {
                continue;
            }
            let crosses =
                |pair: &TrafficPair| pair.path.windows(2).any(|w| w[0] == from && w[1] == to);
            let video_flows: Vec<usize> = video
                .iter()
                .enumerate()
                .filter(|&(_, &pi)| crosses(&model.pairs[pi]))
                .map(|(v, _)| v)
                .collect();
            let cbr_load_bps: f64 = model
                .pairs
                .iter()
                .filter_map(|p| match p.kind {
                    TrafficKind::Cbr { rate, class, stop, .. }
                        if class <= 2 && stop == SimTime::MAX && crosses(p) =>
                    {
                        Some(rate.as_bps() as f64)
                    }
                    _ => None,
                })
                // `Iterator::sum` folds from -0.0, and whether
                // `(-0.0).max(0.0)` keeps the sign depends on the build
                // profile: fold from +0.0 so reports never print `-0`.
                .fold(0.0, |sum, bps| sum + bps);
            let tcp_flows = model
                .pairs
                .iter()
                .filter(|p| matches!(p.kind, TrafficKind::Tcp { .. }) && crosses(p))
                .count();
            out.push(Bottleneck {
                router: from,
                next_hop: to,
                raw_rate: rate,
                pels_capacity: rate.scale(spec.aqm().pels_share),
                video_flows,
                cbr_load_bps,
                tcp_flows,
            });
        }
    }
    out.sort_by_key(|b| (b.router, b.next_hop));
    out
}

/// Structural validation of a model, independent of any engine.
pub fn validate(model: &TopoModel) -> Result<(), SimError> {
    let n = model.n_routers;
    if n == 0 {
        return Err(invalid_config("a topology needs at least one router"));
    }
    let mut designations = vec![0usize; n];
    let mut seen_links: HashMap<(usize, usize), ()> = HashMap::new();
    for l in &model.links {
        if l.a >= n || l.b >= n || l.a == l.b {
            return Err(invalid_config(format!("bad link endpoints {} -> {}", l.a, l.b)));
        }
        if l.delay.is_zero() {
            return Err(invalid_config(format!(
                "zero-delay link {} -> {}: the shard partitioner needs positive lookahead",
                l.a, l.b
            )));
        }
        let key = (l.a.min(l.b), l.a.max(l.b));
        if seen_links.insert(key, ()).is_some() {
            return Err(invalid_config(format!("duplicate link {} <-> {}", l.a, l.b)));
        }
        if l.aqm_ab {
            designations[l.a] += 1;
        }
        if l.aqm_ba {
            designations[l.b] += 1;
        }
    }
    if let Some(r) = designations.iter().position(|&d| d > 1) {
        return Err(invalid_config(format!(
            "router {r} has {} designated AQM egresses; the engine allows one",
            designations[r]
        )));
    }
    for (h, host) in model.hosts.iter().enumerate() {
        if host.router >= n {
            return Err(invalid_config(format!("host {h} attaches to missing router")));
        }
        if host.delay.is_zero() {
            return Err(invalid_config(format!("host {h} has a zero-delay access link")));
        }
    }
    for (pi, pair) in model.pairs.iter().enumerate() {
        let path = &pair.path;
        if path.is_empty() {
            return Err(invalid_config(format!("pair {pi} has an empty path")));
        }
        for check in [Some(path), pair.ack_path.as_ref()].into_iter().flatten() {
            let mut sorted = check.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != check.len() {
                return Err(invalid_config(format!("pair {pi} has a non-simple path")));
            }
        }
        if model.hosts[pair.src_host].router != path[0]
            || model.hosts[pair.dst_host].router != *path.last().expect("non-empty")
        {
            return Err(invalid_config(format!("pair {pi}: hosts do not attach to path ends")));
        }
        if let Some(back) = &pair.ack_path {
            if back.first() != path.last() || back.last() != path.first() {
                return Err(invalid_config(format!("pair {pi}: ack path ends mismatch")));
            }
        }
        if matches!(pair.kind, TrafficKind::Video { .. }) {
            let crosses_aqm = path.windows(2).any(|w| model.is_designated(w[0], w[1]));
            if !crosses_aqm {
                return Err(invalid_config(format!(
                    "video pair {pi} crosses no designated AQM egress: it would never \
                     receive router feedback"
                )));
            }
        }
    }
    Ok(())
}
