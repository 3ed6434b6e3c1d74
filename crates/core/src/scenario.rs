//! End-to-end simulation scenarios: the paper's dumbbell topology (Fig. 6).
//!
//! ```text
//!  video srcs ──┐                       ┌── video receivers
//!  (10 Mb/s)    ├── R1 ══ 4 Mb/s ══ R2 ─┤
//!  TCP srcs  ───┘   (PELS AQM)          └── TCP sinks
//! ```
//!
//! R1 is the AQM bottleneck router; its 4 Mb/s link to R2 is shared 50/50
//! between the PELS queue and the Internet (TCP) queue by WRR. All other
//! links are 10 Mb/s. Video flows use MKC congestion control and γ-driven
//! packet coloring; TCP Reno saturates the Internet share. The dumbbell is
//! a [`TopoModel`] built by [`Network::append`], one model for the shared
//! layout and one per flow for [`Layout::ChainPerFlow`].

use crate::gamma::{GammaConfig, GammaController};
use crate::mkc::{MkcConfig, MkcController};
use crate::network::{
    Host, Network, NetworkOptions, RouterLink, TopoModel, TrafficKind, TrafficPair,
};
use crate::receiver::PelsReceiver;
use crate::roles::RoleIds;
use crate::router::{AqmConfig, AqmRouter, QueueMode};
use crate::source::{CcSpec, PelsSource, SourceMode};
use pels_fgs::decoder::UtilityStats;
use pels_fgs::frame::VideoTrace;
use pels_netsim::error::invalid_config;
use pels_netsim::packet::AgentId;
use pels_netsim::shard::{Partition, ShardedSimulator, TopologyGraph};
use pels_netsim::tcp::TcpSink;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Per-flow configuration inside a scenario.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowSpec {
    /// When the flow joins, relative to simulation start.
    pub start_at: SimDuration,
    /// Congestion controller for this flow.
    pub cc: CcSpec,
    /// γ-controller gains for this flow.
    pub gamma: GammaConfig,
    /// Marking mode (PELS vs best-effort comparator).
    pub mode: SourceMode,
    /// Extra one-way propagation delay on this flow's access link, added
    /// in both directions (models heterogeneous RTTs; Lemma 6 predicts the
    /// stationary rate is unaffected).
    pub extra_delay: SimDuration,
    /// Optional ARQ retransmission (for the comparator experiments).
    pub arq: Option<crate::source::ArqConfig>,
}

impl Default for FlowSpec {
    fn default() -> Self {
        FlowSpec {
            start_at: SimDuration::ZERO,
            cc: CcSpec::default(),
            gamma: GammaConfig::default(),
            mode: SourceMode::Pels,
            extra_delay: SimDuration::ZERO,
            arq: None,
        }
    }
}

/// Topology layout of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Layout {
    /// The paper's Fig. 6 shared-bottleneck dumbbell: every flow crosses
    /// the single AQM router R1.
    #[default]
    SharedDumbbell,
    /// One independent source→router→receiver dumbbell per video flow
    /// (each with its own `n_tcp` cross-traffic flows and a private
    /// bottleneck of `bottleneck` rate). The chains never share a link, so
    /// the topology partitions into connected components and parallel
    /// execution needs no synchronization at all — this is the layout of
    /// the benchmark's `sim_chained` workload.
    ChainPerFlow,
}

/// Full scenario configuration. Defaults follow the paper's Section 6.1.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScenarioConfig {
    /// Simulator seed (runs are bit-reproducible per seed).
    pub seed: u64,
    /// Bottleneck link rate (paper: 4 Mb/s).
    pub bottleneck: Rate,
    /// One-way propagation delay of each access link.
    pub access_delay: SimDuration,
    /// AQM configuration of the bottleneck router.
    pub aqm: AqmConfig,
    /// The video trace streamed by every flow.
    pub trace: VideoTrace,
    /// Wire packet size for video (paper: 500 bytes).
    pub packet_bytes: u32,
    /// The video flows.
    pub flows: Vec<FlowSpec>,
    /// Number of greedy TCP Reno cross-traffic flows in the Internet queue.
    pub n_tcp: usize,
    /// Whether to retain full time series (rates, γ, delays, feedback).
    pub keep_series: bool,
    /// Optional playout deadline at every receiver: packets older than this
    /// on arrival are discarded as undecodable.
    pub playout_deadline: Option<SimDuration>,
    /// Optional receiver-side NACKing (pair with `FlowSpec::arq`).
    pub nack: Option<crate::receiver::NackConfig>,
    /// Topology layout: the shared dumbbell (default), or one independent
    /// chain per flow (see [`Layout`]).
    #[serde(default)]
    pub layout: Layout,
}

/// Wire packet size for video (paper Section 6.1: 500 bytes): the default
/// of [`ScenarioConfig::packet_bytes`], every generated topology's video
/// and CBR packet, and the TFRC comparator's packet size.
pub const VIDEO_PACKET_BYTES: u32 = 500;
/// TCP packet size, bytes, on the dumbbell and on every generated topology.
pub const TCP_PACKET_BYTES: u32 = 1_000;
/// Access link rate (paper Section 6.1: 10 Mb/s), which is also every
/// controller's default rate cap.
pub const ACCESS_RATE: Rate = crate::mkc::MAX_RATE;
/// One-way propagation delay of the dumbbell's bottleneck link.
pub const BOTTLENECK_DELAY: SimDuration = SimDuration::from_millis(5);

/// The paper's video profile adjusted so the base layer matches the stated
/// 128 kb/s initial rate: 1,600 base bytes per frame at 10 fps (4 packets),
/// full frame still 63,000 bytes. See EXPERIMENTS.md for why the literal
/// "21 green packets" constant conflicts with the 128 kb/s base rate.
pub fn default_trace() -> VideoTrace {
    VideoTrace::constant(300, 10.0, 1_600, 61_400)
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 1,
            bottleneck: Rate::from_mbps(4.0),
            access_delay: SimDuration::from_millis(1),
            aqm: AqmConfig::default(),
            trace: default_trace(),
            packet_bytes: VIDEO_PACKET_BYTES,
            flows: vec![FlowSpec::default(), FlowSpec::default()],
            n_tcp: 2,
            keep_series: true,
            playout_deadline: None,
            nack: None,
            layout: Layout::default(),
        }
    }
}

/// The most TCP flows a scenario may ask for, as many as the CLI's flow
/// bound: each is two agents, and a count near `u64::MAX` once reached
/// the allocator.
pub const MAX_TCP_FLOWS: usize = 1 << 20;
/// The longest delay a scenario may set (access, per-flow extra, playout
/// deadline): one hour, far beyond any modelled path, and far enough from
/// `u64::MAX` nanoseconds that `now + delay` cannot wrap.
pub const MAX_DELAY: SimDuration = SimDuration::from_secs(3_600);

impl ScenarioConfig {
    /// Rejects values no scenario can run on — a zero bottleneck rate or
    /// packet size, an empty flow list, a trace that fails
    /// [`VideoTrace::validate`], more than [`MAX_TCP_FLOWS`] TCP flows or
    /// TCP flow ids past `u32`, a delay over [`MAX_DELAY`] — before any of
    /// them reaches an agent that would divide by it or a clock that would
    /// wrap.
    pub fn validate(&self) -> Result<(), crate::SimError> {
        if self.flows.is_empty() {
            return Err(invalid_config("a scenario needs at least one video flow"));
        }
        if self.bottleneck.as_bps() == 0 {
            return Err(invalid_config("bottleneck rate must be positive"));
        }
        if self.packet_bytes == 0 {
            return Err(invalid_config("packet size must be positive"));
        }
        if self.n_tcp > MAX_TCP_FLOWS {
            return Err(invalid_config(format!("n_tcp must be at most {MAX_TCP_FLOWS}")));
        }
        let chains = match self.layout {
            Layout::SharedDumbbell => 1,
            Layout::ChainPerFlow => self.flows.len(),
        };
        if self.n_tcp > 0 && tcp_flow_id(chains - 1, self.n_tcp, self.n_tcp - 1).is_none() {
            return Err(invalid_config("the chains' TCP flow ids overflow u32"));
        }
        let extra = self.flows.iter().map(|f| f.extra_delay);
        let mut delays = [self.access_delay].into_iter().chain(self.playout_deadline).chain(extra);
        if delays.any(|d| d > MAX_DELAY) {
            let max_s = MAX_DELAY.as_secs_f64();
            return Err(invalid_config(format!("delays must be at most {max_s} s")));
        }
        // Each flow's gains pass the checks its controllers are built with.
        for flow in &self.flows {
            if let CcSpec::Mkc(mkc) = flow.cc {
                MkcController::try_new(mkc)?;
            }
            GammaController::try_new(flow.gamma)?;
        }
        self.trace.validate(self.packet_bytes).map_err(invalid_config)
    }
}

/// A built scenario: the sharded simulator plus the role of every agent.
///
/// There is one engine. [`Scenario::try_build`] partitions the link graph
/// with [`Partition::auto`]: the shared dumbbell is cut at its
/// highest-delay tier (the bottleneck link: the R1 side and the R2 side
/// become two shards advancing in windows of the bottleneck delay),
/// [`Layout::ChainPerFlow`] falls apart into one shard per chain, and a
/// graph that cannot be cut runs as a single shard on one event queue.
/// The partition is a function of the topology alone and
/// every agent draws from its own stream, so a report is a function of
/// (config, seed): [`Scenario::set_workers`] changes wall clock only.
///
/// ```no_run
/// use pels_core::scenario::{chained_proportional_config, Scenario};
/// use pels_netsim::time::SimTime;
///
/// let mut sc = Scenario::build(chained_proportional_config(32));
/// sc.set_workers(8);
/// sc.run_until(SimTime::from_secs_f64(10.0));
/// let report = sc.report(); // identical to the same run with 1 worker
/// # let _ = report;
/// ```
#[derive(Debug)]
pub struct Scenario {
    /// The underlying simulator (exposed for custom stepping).
    pub sim: ShardedSimulator,
    /// Agent ids by role, for typed access through [`Scenario::sim`].
    pub ids: RoleIds,
    cfg: ScenarioConfig,
    /// The model the network was built from, released with the agents it
    /// describes. Freed at the end of a build, its large buffers let the
    /// allocator hand memory back that the next build faults in again
    /// (about 120 page faults per 1,024-flow shared dumbbell).
    _model: TopoModel,
}

/// The first TCP flow id on the dumbbell: chain `i`'s TCP flow `j` is
/// `1000 + i·n_tcp + j` (the shared dumbbell is chain 0).
const TCP_FLOW_BASE: usize = 1_000;

/// The TCP flow id of chain `i`'s TCP flow `j`, or `None` past `u32`.
fn tcp_flow_id(i: usize, n_tcp: usize, j: usize) -> Option<u32> {
    let id = i.checked_mul(n_tcp)?.checked_add(TCP_FLOW_BASE + j)?;
    u32::try_from(id).ok()
}

/// Builds the agents, link graph and role ids of `cfg` from the Fig. 6
/// dumbbell as a model: R1 (router 0) reaches R2 (router 1) over the
/// designated bottleneck link, and the hosts are the video sources, the
/// receivers, the TCP sources and the TCP sinks, in that order. The shared
/// dumbbell is one such model; [`Layout::ChainPerFlow`] appends one per
/// flow, restamping a single chain model with each flow's choices, source
/// delay and ids.
fn network(cfg: &ScenarioConfig) -> Result<(Network, TopoModel), crate::SimError> {
    let opts = NetworkOptions {
        aqm: cfg.aqm,
        keep_series: cfg.keep_series,
        trace: Arc::new(cfg.trace.clone()),
        packet_bytes: cfg.packet_bytes,
        playout_deadline: cfg.playout_deadline,
        nack: cfg.nack.is_some(),
    };
    let n = match cfg.layout {
        Layout::SharedDumbbell => cfg.flows.len(),
        Layout::ChainPerFlow => 1,
    };
    let n_tcp = cfg.n_tcp;
    let host = Host { router: 0, rate: ACCESS_RATE, delay: cfg.access_delay, queue: 200 };
    let mut hosts = Vec::with_capacity(2 * (n + n_tcp));
    for (router, count) in [(0, n), (1, n), (0, n_tcp), (1, n_tcp)] {
        hosts.extend(std::iter::repeat_n(Host { router, ..host }, count));
    }
    // Every pair's kind is stamped below, chain by chain.
    let pairs = (0..n + n_tcp)
        .map(|p| {
            let (src_host, dst_host) = if p < n { (p, n + p) } else { (n + p, n + n_tcp + p) };
            let (kind, path) = (TrafficKind::Tcp { flow: 0 }, vec![0, 1]);
            TrafficPair { kind, src_host, dst_host, path, ack_path: None }
        })
        .collect();
    let bottleneck = RouterLink {
        rate_ab: cfg.bottleneck,
        rate_ba: cfg.bottleneck,
        aqm_ab: true,
        ..RouterLink::plain(0, 1, BOTTLENECK_DELAY)
    };
    let links = vec![bottleneck];
    let mut model = TopoModel { family: "dumbbell".into(), n_routers: 2, links, hosts, pairs };
    let (chains, hosts) = (cfg.flows.len() / n, model.hosts.len());
    let mut net = Network::new(chains * (2 + hosts), chains * (1 + hosts));
    for (i, flows) in cfg.flows.chunks(n).enumerate() {
        for (k, f) in flows.iter().enumerate() {
            model.hosts[k].delay = cfg.access_delay + f.extra_delay;
            model.pairs[k].kind = TrafficKind::Video {
                flow: (i * n + k) as u32,
                start: f.start_at,
                stop: None,
                cc: f.cc,
                gamma: f.gamma,
                mode: f.mode,
                arq: f.arq.is_some(),
            };
        }
        for (j, pair) in model.pairs[n..].iter_mut().enumerate() {
            let flow =
                tcp_flow_id(i, n_tcp, j).ok_or_else(|| invalid_config("TCP ids past u32"))?;
            pair.kind = TrafficKind::Tcp { flow };
        }
        net.append(&model, &opts)?;
    }
    Ok((net, model))
}

impl Scenario {
    /// Builds (but does not run) the dumbbell scenario.
    ///
    /// # Panics
    ///
    /// Panics on a configuration [`ScenarioConfig::validate`] rejects.
    pub fn build(cfg: ScenarioConfig) -> Self {
        Self::try_build(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Scenario::build`]: returns
    /// [`crate::SimError::InvalidConfig`] instead of panicking on a bad
    /// configuration.
    pub fn try_build(cfg: ScenarioConfig) -> Result<Self, crate::SimError> {
        Self::try_build_partitioned(cfg, Partition::auto)
    }

    /// [`Scenario::try_build`] with the partition chosen by the caller.
    /// This is the reference the determinism tests compare against:
    /// `|g| Partition::serial(g.n_agents())` runs the whole graph as one
    /// shard on one event queue, and its report must equal the one
    /// [`Partition::auto`] gives at any worker count.
    pub fn try_build_partitioned(
        cfg: ScenarioConfig,
        partition: impl FnOnce(&TopologyGraph) -> Partition,
    ) -> Result<Self, crate::SimError> {
        cfg.validate()?;
        let (net, model) = network(&cfg)?;
        let sim = ShardedSimulator::new(cfg.seed, &partition(&net.graph), net.agents);
        Ok(Scenario { sim, ids: net.ids, cfg, _model: model })
    }

    /// Sets the number of OS threads used per window. This affects wall
    /// clock only — the schedule, and therefore every result, is fixed by
    /// the partition.
    pub fn set_workers(&mut self, workers: usize) {
        self.sim.set_workers(workers);
    }

    /// Agent ids of the AQM bottleneck router(s): one for the shared
    /// dumbbell, one per chain for [`Layout::ChainPerFlow`].
    pub fn router_ids(&self) -> &[AgentId] {
        &self.ids.aqm_routers
    }

    /// See [`RoleIds::flush_telemetry`].
    pub fn flush_telemetry(&self, telemetry: &pels_telemetry::Telemetry, full: bool) {
        self.ids.flush_telemetry(&self.sim, telemetry, full);
    }

    /// Runs the scenario until `t` (absolute simulation time).
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// The scenario configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Typed access to video source `i`.
    pub fn source(&self, i: usize) -> &PelsSource {
        self.sim.agent::<PelsSource>(self.ids.sources[i])
    }

    /// Typed access to video receiver `i`.
    pub fn receiver(&self, i: usize) -> &PelsReceiver {
        self.sim.agent::<PelsReceiver>(self.ids.receivers[i])
    }

    /// Typed access to the (first) bottleneck AQM router.
    pub fn router(&self) -> &AqmRouter {
        self.sim.agent::<AqmRouter>(self.ids.aqm_routers[0])
    }

    /// Summarizes the run into a serializable report.
    pub fn report(&self) -> ScenarioReport {
        compute_report(&self.sim, &self.cfg, &self.ids)
    }

    /// Aggregate utility across all video flows.
    pub fn total_utility(&self) -> UtilityStats {
        self.ids.total_utility(&self.sim)
    }
}

/// Summarizes a finished run into a [`ScenarioReport`]. Bottleneck counters are aggregated across all AQM routers (one for the
/// shared dumbbell, one per chain for [`Layout::ChainPerFlow`]); the final
/// feedback values are taken from flow 0's router, which is representative
/// because chains are configured symmetrically.
fn compute_report(sim: &ShardedSimulator, cfg: &ScenarioConfig, ids: &RoleIds) -> ScenarioReport {
    let flows: Vec<FlowReport> = ids
        .sources
        .iter()
        .zip(&ids.receivers)
        .enumerate()
        .map(|(i, (&src, &rcv))| {
            let s = sim.agent::<PelsSource>(src);
            FlowReport {
                flow: i as u32,
                final_rate_kbps: s.rate_bps() / 1_000.0,
                final_gamma: s.gamma(),
                frames_sent: s.frames_sent(),
                sent_by_color: s.sent_by_color,
                starved: s.is_starved(),
                skipped_base_frames: s.skipped_base_frames,
                probes_sent: s.probes_sent,
                ..sim.agent::<PelsReceiver>(rcv).flow_report()
            }
        })
        .collect();
    let mut bottleneck_tx_by_class = [0u64; 4];
    let mut bottleneck_drops_by_class = [0u64; 4];
    let mut random_drops = 0u64;
    for &rid in &ids.aqm_routers {
        let router = sim.agent::<AqmRouter>(rid);
        let stats = &router.port(0).stats;
        for c in 0..4 {
            bottleneck_tx_by_class[c] += stats.tx_by_class[c];
            bottleneck_drops_by_class[c] += stats.drops_by_class[c];
        }
        random_drops += router.random_drops;
    }
    let first_router = sim.agent::<AqmRouter>(ids.aqm_routers[0]);
    let starved_flows = flows.iter().filter(|f| f.starved).count();
    ScenarioReport {
        duration_s: sim.now().as_secs_f64(),
        admitted_flows: flows.len() - starved_flows,
        starved_flows,
        flows,
        bottleneck_tx_by_class,
        green_drops: bottleneck_drops_by_class[0],
        bottleneck_drops_by_class,
        router_final_loss: first_router.estimator().loss(),
        router_final_fgs_loss: first_router.estimator().fgs_loss(),
        random_drops,
        lemma6_kbps: lemma6_kbps(cfg),
        tcp_delivered: ids.tcp_sinks.iter().map(|&id| sim.agent::<TcpSink>(id).delivered()).sum(),
    }
}

/// Per-flow summary of a run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FlowReport {
    /// Flow index.
    pub flow: u32,
    /// MKC rate at the end of the run, kb/s.
    pub final_rate_kbps: f64,
    /// γ at the end of the run.
    pub final_gamma: f64,
    /// Frames emitted by the source.
    pub frames_sent: u64,
    /// Frames with at least one received packet.
    pub frames_seen: u64,
    /// Packets sent per color.
    pub sent_by_color: [u64; 3],
    /// Packets received per color.
    pub received_by_color: [u64; 3],
    /// Aggregate utility (Eq. 3 empirical).
    pub utility: f64,
    /// Enhancement-layer loss observed end-to-end.
    pub enh_loss: f64,
    /// Mean one-way delay per color, seconds.
    pub mean_delay_s: [f64; 3],
    /// Max one-way delay per color, seconds.
    pub max_delay_s: [f64; 3],
    /// Whether the degradation policy had starved this flow at run end.
    #[serde(default)]
    pub starved: bool,
    /// Frames skipped by base thinning (rate below the base floor).
    #[serde(default)]
    pub skipped_base_frames: u64,
    /// Path probes sent while starved.
    #[serde(default)]
    pub probes_sent: u64,
}

/// Whole-scenario summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioReport {
    /// Simulated seconds.
    pub duration_s: f64,
    /// Flows still emitting at run end (not starved).
    #[serde(default)]
    pub admitted_flows: usize,
    /// Flows the degradation policy starved (DESIGN.md §11).
    #[serde(default)]
    pub starved_flows: usize,
    /// Per-flow summaries.
    pub flows: Vec<FlowReport>,
    /// Bottleneck transmit counts per class.
    pub bottleneck_tx_by_class: [u64; 4],
    /// Base-layer (green) packets dropped at the bottleneck. The paper's
    /// core invariant is that this stays 0 — any other number means the
    /// strict-priority protection of the base layer failed, which the old
    /// report hid inside `bottleneck_drops_by_class`.
    #[serde(default)]
    pub green_drops: u64,
    /// Bottleneck drop counts per class.
    pub bottleneck_drops_by_class: [u64; 4],
    /// Final router feedback `p`.
    pub router_final_loss: f64,
    /// Final router FGS-layer loss.
    pub router_final_fgs_loss: f64,
    /// Uniform random drops (best-effort mode only).
    pub random_drops: u64,
    /// Lemma 6 stationary rate `C/N + α/β` for this topology, kb/s
    /// (`None` when flow 0 is not MKC-controlled).
    #[serde(default)]
    pub lemma6_kbps: Option<f64>,
    /// Total TCP packets delivered in-order across all sinks.
    pub tcp_delivered: u64,
}

/// Lemma 6 stationary rate `C/N + α/β` for `cfg`, kb/s, with `C` the PELS
/// share of the bottleneck and `N` the configured flow count. `None` when
/// flow 0 is not MKC-controlled (Lemma 6 is an MKC result).
pub fn lemma6_kbps(cfg: &ScenarioConfig) -> Option<f64> {
    lemma6_kbps_for(cfg, cfg.flows.len())
}

/// Lemma 6 rate for `n` competing flows under `cfg`'s topology and gains —
/// `n` may differ from the configured flow count (e.g. the *admitted* count
/// after starvation, which is the population actually sharing the pipe).
pub fn lemma6_kbps_for(cfg: &ScenarioConfig, n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let crate::source::CcSpec::Mkc(m) = cfg.flows.first()?.cc else {
        return None;
    };
    // Under ChainPerFlow every flow has its own bottleneck of the full
    // configured rate, so the population sharing a pipe is always 1.
    let n_eff = match cfg.layout {
        Layout::SharedDumbbell => n,
        Layout::ChainPerFlow => 1,
    };
    let c = cfg.bottleneck.scale(cfg.aqm.pels_share);
    Some(MkcController::new(m).stationary_rate_bps(c, n_eff) / 1_000.0)
}

/// The operating point of the paper's Fig. 10 / Section 3 analysis: frames
/// carry on the order of H ~ 100 enhancement packets while the FGS layer
/// still loses ~10%. With the default 4 Mb/s bottleneck each flow's frame
/// budget is only ~13 packets, which makes best-effort streaming look far
/// better than the paper's U ~ 0.1 examples (Eq. 3 improves rapidly as H
/// shrinks). This configuration widens the pipe to 30 Mb/s and raises MKC's
/// alpha so that `n_flows` flows each stream ~100-packet frames at the
/// requested FGS-layer loss.
pub fn wideband_config(n_flows: usize, target_fgs_loss: f64) -> ScenarioConfig {
    wideband_with_bottleneck(n_flows, target_fgs_loss, Rate::from_mbps(30.0))
}

/// Capacity-proportional variant of [`wideband_config`] for scaling runs:
/// the bottleneck grows with the flow count at the same per-flow share the
/// 30 Mb/s pipe gives its designed 8 flows (3.75 Mb/s of raw bottleneck
/// each), so the per-flow operating point — frame budget and target
/// FGS-layer loss — is preserved at any N.
pub fn wideband_scaled_config(n_flows: usize, target_fgs_loss: f64) -> ScenarioConfig {
    let mut cfg =
        wideband_with_bottleneck(n_flows, target_fgs_loss, Rate::from_mbps(3.75 * n_flows as f64));
    stagger_starts(&mut cfg.flows);
    // Full per-step series across hundreds of flows would dominate memory.
    cfg.keep_series = false;
    cfg
}

fn wideband_with_bottleneck(
    n_flows: usize,
    target_fgs_loss: f64,
    bottleneck: Rate,
) -> ScenarioConfig {
    assert!(n_flows > 0, "need at least one flow");
    assert!(
        (0.0..0.9).contains(&target_fgs_loss),
        "target loss must be in [0, 0.9): {target_fgs_loss}"
    );
    let pels = bottleneck.as_bps() as f64 * 0.5;
    let base = 128_000.0 * n_flows as f64;
    // Solve surplus = target * enh_total with enh_total = pels + surplus - base.
    let surplus = target_fgs_loss * (pels - base) / (1.0 - target_fgs_loss);
    let alpha = (surplus / n_flows as f64 * 0.5).max(20_000.0); // beta = 0.5
    let flow = FlowSpec {
        cc: CcSpec::Mkc(MkcConfig {
            alpha_bps: alpha,
            max_rate: Rate::from_mbps(9.0),
            ..Default::default()
        }),
        ..Default::default()
    };
    ScenarioConfig { bottleneck, flows: vec![flow; n_flows], ..Default::default() }
}

/// A capacity-proportional dumbbell for scaling studies: the bottleneck
/// grows with the flow count so each flow's PELS share stays 400 kb/s —
/// comfortably above the 128 kb/s base floor at any N — and Lemma 6 gives
/// the same stationary rate (400 + α/β = 440 kb/s) at every N, making
/// sweep rows directly comparable. Per-step series are disabled: at
/// hundreds of flows they would dominate memory, and scaling runs only
/// need the end-of-run report.
pub fn proportional_config(n_flows: usize) -> ScenarioConfig {
    assert!(n_flows > 0, "need at least one flow");
    // 800 kb/s of raw bottleneck per flow = 400 kb/s of PELS share at the
    // default 50/50 WRR split.
    let bottleneck = Rate::from_bps(800_000 * n_flows as u64);
    let mut flows = vec![FlowSpec::default(); n_flows];
    stagger_starts(&mut flows);
    ScenarioConfig { bottleneck, flows, keep_series: false, ..Default::default() }
}

/// [`proportional_config`]'s workload restated as `n_flows` *independent*
/// dumbbell chains ([`Layout::ChainPerFlow`]): each flow gets its own
/// 800 kb/s bottleneck — the same 400 kb/s PELS share and 440 kb/s Lemma 6
/// stationary rate as the shared capacity-proportional pipe — but the
/// topology decomposes into N connected components, which is the shape the
/// parallel partitioner exploits. Scaling rows from the two configs are
/// directly comparable per flow.
pub fn chained_proportional_config(n_flows: usize) -> ScenarioConfig {
    assert!(n_flows > 0, "need at least one flow");
    let mut flows = vec![FlowSpec::default(); n_flows];
    stagger_starts(&mut flows);
    ScenarioConfig {
        bottleneck: Rate::from_bps(800_000),
        flows,
        layout: Layout::ChainPerFlow,
        keep_series: false,
        ..Default::default()
    }
}

/// [`wideband_scaled_config`]'s per-flow operating point on independent
/// chains: every flow streams alone over a 3.75 Mb/s bottleneck — the raw
/// per-flow share the 30 Mb/s pipe gives its designed 8 flows — so frame
/// budgets and the target FGS-layer loss match the shared wideband runs
/// while the topology decomposes into `n_flows` components.
pub fn wideband_chained_config(n_flows: usize, target_fgs_loss: f64) -> ScenarioConfig {
    assert!(n_flows > 0, "need at least one flow");
    let mut cfg = wideband_with_bottleneck(1, target_fgs_loss, Rate::from_mbps(3.75));
    cfg.flows = vec![cfg.flows[0].clone(); n_flows];
    stagger_starts(&mut cfg.flows);
    cfg.layout = Layout::ChainPerFlow;
    cfg.keep_series = false;
    cfg
}

/// Spreads flow starts evenly across one frame interval. With hundreds of
/// flows, synchronized t = 0 starts emit every first frame in one burst
/// that overflows the green queue before any control loop has run — a
/// measurement artifact, not congestion, and one no real deployment of
/// independent sources would exhibit.
fn stagger_starts(flows: &mut [FlowSpec]) {
    let n = flows.len();
    for (i, f) in flows.iter_mut().enumerate() {
        f.start_at = SimDuration::from_secs_f64(0.1 * i as f64 / n as f64);
    }
}

/// Convenience: a scenario with `n` identical PELS flows starting at given
/// times (seconds).
pub fn pels_flows(starts_s: &[f64]) -> Vec<FlowSpec> {
    starts_s
        .iter()
        .map(|&s| FlowSpec { start_at: SimDuration::from_secs_f64(s), ..Default::default() })
        .collect()
}

/// Convenience: a best-effort scenario config (router in uniform-drop mode,
/// sources in best-effort marking mode) matching `cfg`'s other parameters.
pub fn to_best_effort(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.aqm.mode = QueueMode::BestEffortUniform;
    for f in &mut cfg.flows {
        f.mode = SourceMode::BestEffort;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_cfg(n_flows: usize, secs: u64) -> (ScenarioConfig, SimTime) {
        let cfg = ScenarioConfig { flows: pels_flows(&vec![0.0; n_flows]), ..Default::default() };
        (cfg, SimTime::from_secs_f64(secs as f64))
    }

    #[test]
    fn two_flows_share_pels_capacity_fairly() {
        let (cfg, t) = short_cfg(2, 30);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        // Lemma 6 with C = 2 Mb/s, N = 2, alpha = 20 kb/s, beta = 0.5:
        // r* = 1000 + 40 = 1040 kb/s each.
        for i in 0..2 {
            let r = s.source(i).rate_bps() / 1_000.0;
            assert!((r - 1_040.0).abs() < 120.0, "flow {i} rate {r} kb/s");
        }
        let r0 = s.source(0).rate_bps();
        let r1 = s.source(1).rate_bps();
        assert!((r0 - r1).abs() < 0.1 * r0, "fairness: {r0} vs {r1}");
    }

    #[test]
    fn a_fault_before_the_clock_is_refused_whole() {
        // Installed once the run has reached 1 s, an outage at 0.5–0.6 s
        // would pop behind the clock: the schedule is refused, and nothing
        // of it fires.
        let (cfg, t) = short_cfg(2, 1);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        let mut faults = pels_netsim::faults::FaultSchedule::new();
        let (from, to) = (SimTime::from_secs_f64(0.5), SimTime::from_secs_f64(0.6));
        faults.link_outage(pels_netsim::AgentId(0), 0, from, to);
        let err = s.sim.install_faults(&faults);
        assert!(matches!(err, Err(crate::SimError::InvalidConfig(_))), "{err:?}");
        s.run_until(SimTime::from_secs_f64(2.0));
        assert_eq!(s.sim.fault_stats().faults_applied, 0);
    }

    #[test]
    fn scraped_snapshot_equals_engine_state() {
        let (cfg, t) = short_cfg(2, 10);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        let snap = s.ids.scrape(&s.sim, true);

        // The shared dumbbell builds its AQM router first: one name whatever
        // the flow count.
        let router = format!("sim.router{}", s.router_ids()[0].0);
        assert_eq!(router, "sim.router0");
        let of_router = |metric: &str| format!("{router}.{metric}");

        // Every series is the agent's own, read once.
        assert_eq!(snap.series["sim.flow0.rate_kbps"], s.source(0).rate_series.points);
        assert_eq!(snap.series["sim.flow0.gamma"], s.source(0).gamma_series.points);
        assert_eq!(snap.series["sim.flow1.fgs_loss"], s.source(1).loss_series.points);
        assert_eq!(snap.series[&of_router("p")], s.router().feedback_series.points);
        assert_eq!(snap.series[&of_router("p_red")], s.router().red_loss_series.points);
        assert_eq!(snap.series["sim.flow0.delay.green"], s.receiver(0).delays.series[0].points);

        // So is every count and distribution.
        let epochs = s.source(0).mkc().expect("flows run MKC").updates();
        assert!(epochs > 100, "epochs drive MKC");
        assert_eq!(snap.counters["sim.flow0.feedback_epochs"], epochs);
        let ticks = s.router().estimator().epoch();
        assert!(ticks > 100, "T = 30 ms over 10 s");
        assert_eq!(snap.counters[&of_router("feedback_ticks")], ticks);
        let red_drops = s.report().bottleneck_drops_by_class[2];
        assert!(red_drops > 0, "red sheds under congestion");
        assert_eq!(snap.counters[&of_router("drops.red")], red_drops);
        assert_eq!(snap.gauges["sim.events"].value, s.sim.events_processed() as f64);
        assert!(snap.gauges[&of_router("wrr_turns")].value > 0.0);
        let red = &snap.stats["sim.flow0.delay.red"];
        let kept = &s.receiver(0).delays;
        assert_eq!(red.summary.count(), kept.by_class[2].count());
        assert_eq!(red.summary.mean(), kept.by_class[2].mean());
        assert_eq!(red.hist, kept.hist_by_class[2]);

        // A periodic scrape is the same counts without the bulk.
        let periodic = s.ids.scrape(&s.sim, false);
        assert_eq!(periodic.counters, snap.counters);
        assert!(periodic.series.is_empty());
        assert!(periodic.stats.values().all(|st| st.hist.is_none()));
    }

    #[test]
    fn flushing_every_second_changes_nothing() {
        let (cfg, t) = short_cfg(1, 5);
        let mut plain = Scenario::build(cfg.clone());
        plain.run_until(t);
        let tel = pels_telemetry::Telemetry::new();
        let mem = pels_telemetry::MemorySink::default();
        tel.attach_sink(Box::new(mem.clone()));
        let mut flushed = Scenario::build(cfg);
        for sec in 1..=5 {
            flushed.run_until(SimTime::from_secs_f64(f64::from(sec)));
            flushed.flush_telemetry(&tel, sec == 5);
        }
        assert_eq!(mem.snapshots().len(), 5);
        let a = serde_json::to_string(&plain.report()).expect("serialize");
        let b = serde_json::to_string(&flushed.report()).expect("serialize");
        assert_eq!(a, b, "a scrape reads; it must not perturb the run");
    }

    #[test]
    fn pels_utility_is_near_one_under_congestion() {
        let (cfg, t) = short_cfg(4, 40);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        let u = s.total_utility();
        assert!(u.enh_received > 1_000, "enough data received");
        assert!(u.utility() > 0.95, "PELS utility {}", u.utility());
        // There *is* loss (red packets die), yet utility stays high.
        let report = s.report();
        assert!(report.bottleneck_drops_by_class[2] > 0, "red drops expected");
        assert_eq!(report.bottleneck_drops_by_class[0], 0, "green never drops");
    }

    #[test]
    fn best_effort_utility_is_low_under_same_load() {
        let (cfg, t) = short_cfg(4, 40);
        let mut s = Scenario::build(to_best_effort(cfg));
        s.run_until(t);
        let u = s.total_utility();
        assert!(u.enh_received > 1_000);
        assert!(u.utility() < 0.7, "best-effort utility should collapse, got {}", u.utility());
    }

    #[test]
    fn green_and_yellow_delays_are_small_red_delays_large() {
        let (cfg, t) = short_cfg(4, 40);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        let mut green = 0.0f64;
        let mut yellow = 0.0f64;
        let mut red = 0.0f64;
        for i in 0..4 {
            let d = &s.receiver(i).delays.by_class;
            green = green.max(d[0].mean());
            yellow = yellow.max(d[1].mean());
            red = red.max(d[2].mean());
        }
        assert!(green < 0.05, "green mean delay {green}");
        assert!(yellow < 0.08, "yellow mean delay {yellow}");
        assert!(red > 2.0 * yellow, "red {red} vs yellow {yellow}");
    }

    #[test]
    fn tcp_cross_traffic_gets_its_wrr_share() {
        let (cfg, t) = short_cfg(2, 30);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        let report = s.report();
        // Internet share is 2 Mb/s; 30 s at 1000 B packets = 7500 packets
        // at full utilization. Expect a decent fraction of that.
        assert!(report.tcp_delivered > 4_000, "tcp delivered {}", report.tcp_delivered);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let (cfg, t) = short_cfg(2, 10);
            let mut s = Scenario::build(cfg);
            s.run_until(t);
            let r = s.report();
            (
                r.flows[0].final_rate_kbps,
                r.flows[0].utility,
                r.bottleneck_tx_by_class,
                r.tcp_delivered,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chained_layout_shards_per_flow() {
        let sc = Scenario::build(chained_proportional_config(6));
        assert_eq!(sc.sim.n_shards(), 6);
        assert_eq!(sc.sim.lookahead(), None);
        assert_eq!(sc.router_ids().len(), 6);
    }

    #[test]
    fn worker_count_does_not_change_report() {
        let cfg = chained_proportional_config(8);
        let reports: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let mut sc = Scenario::build(cfg.clone());
                sc.set_workers(w);
                sc.run_until(SimTime::from_secs_f64(5.0));
                serde_json::to_string(&sc.report()).unwrap()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[0], reports[2]);
    }

    /// `validate` alone, so a count the builder would try to allocate is
    /// never built.
    fn rejected(cfg: ScenarioConfig) -> bool {
        matches!(cfg.validate(), Err(crate::SimError::InvalidConfig(_)))
    }

    #[test]
    fn a_trillion_tcp_flows_are_rejected() {
        // Once: "memory allocation of 32000000000096 bytes failed".
        assert!(rejected(ScenarioConfig { n_tcp: 1_000_000_000_000, ..Default::default() }));
    }

    #[test]
    fn five_million_tcp_flows_are_rejected() {
        // Once: a one-second run still busy after 20 s.
        assert!(rejected(ScenarioConfig { n_tcp: 5_000_000, ..Default::default() }));
        assert!(!rejected(ScenarioConfig { n_tcp: MAX_TCP_FLOWS, ..Default::default() }));
    }

    #[test]
    fn chain_tcp_ids_past_u32_are_rejected() {
        // 4096 chains of 2^20 TCP flows number past u32: the ids wrapped.
        let mut cfg = chained_proportional_config(4_096);
        cfg.n_tcp = MAX_TCP_FLOWS;
        assert!(rejected(cfg.clone()));
        cfg.n_tcp = 1_000;
        assert!(!rejected(cfg));
    }

    #[test]
    fn an_access_delay_near_u64_max_is_rejected() {
        // Once: `now + delay` wrapped into a lookahead violation.
        let access_delay = SimDuration::from_nanos(u64::MAX);
        assert!(rejected(ScenarioConfig { access_delay, ..Default::default() }));
        let access_delay = MAX_DELAY;
        assert!(!rejected(ScenarioConfig { access_delay, ..Default::default() }));
    }

    #[test]
    fn an_extra_delay_near_u64_max_is_rejected() {
        // Once: the same wrap, on one flow's access link, and exit 0.
        let mut cfg = ScenarioConfig::default();
        cfg.flows[1].extra_delay = SimDuration::from_nanos(u64::MAX - 1_000);
        assert!(rejected(cfg));
    }

    #[test]
    fn a_playout_deadline_past_an_hour_is_rejected() {
        let playout_deadline = Some(MAX_DELAY + SimDuration::from_nanos(1));
        assert!(rejected(ScenarioConfig { playout_deadline, ..Default::default() }));
    }

    #[test]
    fn malformed_configs_are_rejected_not_run() {
        let empty_trace: VideoTrace = serde_json::from_str(r#"{"fps":10.0,"frames":[]}"#).unwrap();
        let mut zero_fps = default_trace();
        zero_fps.fps = 0.0;
        let frame_of = |base, enh| VideoTrace::constant(1, 10.0, base, enh);
        let bad: Vec<(&str, ScenarioConfig)> = vec![
            ("no flows", ScenarioConfig { flows: vec![], ..Default::default() }),
            ("bottleneck", ScenarioConfig { bottleneck: Rate::ZERO, ..Default::default() }),
            ("packet_bytes", ScenarioConfig { packet_bytes: 0, ..Default::default() }),
            ("fps", ScenarioConfig { trace: zero_fps, ..Default::default() }),
            ("frames", ScenarioConfig { trace: empty_trace, ..Default::default() }),
            // Nothing to pace across the interval: the source would divide
            // by a zero-packet plan.
            ("no base layer", ScenarioConfig { trace: frame_of(0, 0), ..Default::default() }),
            // 80 001 packets of 500 bytes wrap the u16 packet index.
            (
                "frame too big",
                ScenarioConfig { trace: frame_of(40_000_000, 0), ..Default::default() },
            ),
        ];
        for (what, cfg) in bad {
            let err = Scenario::try_build(cfg).expect_err(what);
            assert!(matches!(err, crate::SimError::InvalidConfig(_)), "{what}: {err}");
        }
    }

    #[test]
    fn report_is_serializable() {
        let (cfg, t) = short_cfg(1, 5);
        let mut s = Scenario::build(cfg);
        s.run_until(t);
        let json = serde_json::to_string(&s.report());
        assert!(json.is_ok());
    }
}
