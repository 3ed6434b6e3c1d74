//! The topology model's checks and its bottleneck table.
//!
//! Generators ([`crate::gen`]) produce a [`TopoModel`]: routers,
//! bidirectional router links (with at most one *designated AQM egress*
//! per router), single-homed hosts, and traffic pairs with explicit router
//! paths. The model types and the builder that turns a model into agents
//! live in [`pels_core::network`] and are re-exported here. This module
//! keeps what only generated topologies need: [`validate`], which enforces
//! the engine's invariants on a hand-built or generated model,
//! [`bottlenecks`], the table the max-min reference reads, and [`compile`]
//! (validate, build, tabulate):
//!
//! - an [`AqmRouter`](pels_core::router::AqmRouter) has exactly one AQM
//!   bottleneck port and it must be port 0 — the model's "designated
//!   egress";
//! - every PELS video flow must cross at least one designated egress,
//!   otherwise it would never receive router feedback and the stale-feedback
//!   watchdog would decay it to the floor;
//! - destination-based routes must be conflict-free, which holds because
//!   every traffic endpoint is a unique host agent and paths are simple.

use crate::spec::TopoSpec;
pub use pels_core::network::{Host, RouterLink, TopoModel, TrafficKind, TrafficPair};
use pels_core::network::{Network, NetworkOptions};
use pels_core::roles::RoleIds;
use pels_core::scenario::{default_trace, VIDEO_PACKET_BYTES};
use pels_core::SimError;
use pels_netsim::error::invalid_config;
use pels_netsim::shard::TopologyGraph;
use pels_netsim::sim::Agent;
use pels_netsim::time::{Rate, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// One designated AQM egress and the load crossing it: the unit of the
/// multi-bottleneck max-min validation.
#[derive(Debug, Clone)]
pub struct Bottleneck {
    /// Router owning the AQM port (model index).
    pub router: usize,
    /// The designated next hop.
    pub next_hop: usize,
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

/// Validates `model` and builds it into agents, the partition graph and the
/// bottleneck table. Fails with [`SimError::InvalidConfig`] on any violated
/// invariant (multiple designations on one router, a zero-delay link, a
/// video flow missing AQM feedback, a non-simple path, a reused host, ...).
/// Generated topologies stream [`default_trace`] in
/// [`VIDEO_PACKET_BYTES`] packets with no playout deadline and no NACKs.
pub fn compile(model: &TopoModel, spec: &TopoSpec) -> Result<CompiledTopo, SimError> {
    validate(model)?;
    let opts = NetworkOptions {
        aqm: spec.aqm(),
        keep_series: spec.keep_series(),
        trace: Arc::new(default_trace()),
        packet_bytes: VIDEO_PACKET_BYTES,
        playout_deadline: None,
        nack: false,
    };
    let hosts = model.hosts.len();
    let mut net = Network::new(model.n_routers + hosts, model.links.len() + hosts);
    net.append(model, &opts)?;
    let Network { agents, graph, ids, .. } = net;
    Ok(CompiledTopo { agents, graph, ids, bottlenecks: bottlenecks(model, spec) })
}

/// Each router's designated AQM egress: its next hop and the rate of that
/// direction. [`validate`] allows at most one per router.
pub(crate) fn designated_egress(model: &TopoModel) -> Vec<Option<(usize, Rate)>> {
    let mut egress = vec![None; model.n_routers];
    for l in &model.links {
        if l.aqm_ab {
            egress[l.a] = Some((l.b, l.rate_ab));
        }
        if l.aqm_ba {
            egress[l.b] = Some((l.a, l.rate_ba));
        }
    }
    egress
}

/// The bottleneck table: every designated egress, its PELS capacity, and
/// the video flows / steady CBR load crossing it, sorted by router. One
/// walk over each pair's path adds the pair to the egress it crosses.
pub fn bottlenecks(model: &TopoModel, spec: &TopoSpec) -> Vec<Bottleneck> {
    let share = spec.aqm().pels_share;
    let mut row_of = vec![None; model.n_routers];
    let mut out = Vec::new();
    for (router, egress) in designated_egress(model).into_iter().enumerate() {
        let Some((next_hop, rate)) = egress else { continue };
        row_of[router] = Some((next_hop, out.len()));
        out.push(Bottleneck {
            router,
            next_hop,
            pels_capacity: rate.scale(share),
            video_flows: Vec::new(),
            // Summed from +0.0 in pair order: `Iterator::sum` folds from
            // -0.0, and whether `(-0.0).max(0.0)` keeps the sign depends on
            // the build profile, so reports could print `-0`.
            cbr_load_bps: 0.0,
            tcp_flows: 0,
        });
    }
    let mut video = 0;
    for pair in &model.pairs {
        for hop in pair.path.windows(2) {
            let Some((_, row)) = row_of[hop[0]].filter(|&(next, _)| next == hop[1]) else {
                continue;
            };
            let bn: &mut Bottleneck = &mut out[row];
            match pair.kind {
                TrafficKind::Video { .. } => bn.video_flows.push(video),
                TrafficKind::Tcp { .. } => bn.tcp_flows += 1,
                TrafficKind::Cbr { rate, class, stop, .. }
                    if class <= 2 && stop == SimTime::MAX =>
                {
                    bn.cbr_load_bps += rate.as_bps() as f64
                }
                TrafficKind::Cbr { .. } => {}
            }
        }
        video += usize::from(matches!(pair.kind, TrafficKind::Video { .. }));
    }
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
    let egress = designated_egress(model);
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
            if sorted.len() != check.len() || sorted.last().is_some_and(|&r| r >= n) {
                return Err(invalid_config(format!("pair {pi} has a non-simple or broken path")));
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
            let crosses_aqm =
                path.windows(2).any(|w| egress[w[0]].is_some_and(|(next, _)| next == w[1]));
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
