//! Generated scenarios on the sharded engine, with the multi-bottleneck
//! validation report.
//!
//! [`TopoScenario`] is the off-dumbbell sibling of
//! [`pels_core::scenario::Scenario`]: it generates a topology from a
//! [`TopoSpec`], compiles it, partitions the link graph with
//! [`Partition::auto`], and drives the shards. The partition is a pure
//! function of the generated graph, so a run's results are byte-identical
//! at every `--workers` value. [`TopoScenario::report`] compares every
//! bottleneck's measured stationary rates against the max-min + `α/β`
//! reference ([`crate::maxmin`]).

use crate::gen::generate;
use crate::maxmin::{self, Prediction};
use crate::model::{compile, Bottleneck, TopoModel};
use crate::spec::TopoSpec;
use pels_core::mkc::MkcConfig;
use pels_core::receiver::PelsReceiver;
use pels_core::roles::RoleIds;
use pels_core::source::PelsSource;
use pels_core::SimError;
use pels_netsim::packet::AgentId;
use pels_netsim::shard::{Partition, ShardedSimulator};
use pels_netsim::tcp::TcpSink;
use pels_netsim::time::SimTime;
use serde::{Deserialize, Serialize};

/// One bottleneck's predicted-vs-measured row in a [`TopoReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BottleneckRow {
    /// Router owning the AQM egress (model index).
    pub router: usize,
    /// Designated next hop (model index).
    pub next_hop: usize,
    /// PELS share of the link rate, kb/s.
    pub pels_capacity_kbps: f64,
    /// Steady PELS-class CBR crossing it, kb/s.
    pub cbr_load_kbps: f64,
    /// Video flows crossing it that are active at the horizon.
    pub n_video: usize,
    /// Of those, flows whose max-min share binds here.
    pub n_bound: usize,
    /// Water-filling + `α/β` prediction for bound flows, kb/s.
    pub predicted_kbps: f64,
    /// Mean measured stationary rate of bound flows, kb/s (0 when none).
    pub measured_kbps: f64,
    /// `|measured − predicted| / predicted`, percent (0 when none bound).
    pub deviation_pct: f64,
    /// TCP flows whose data path crosses this egress (unmodeled by the
    /// stationary reference).
    pub n_tcp: usize,
    /// Validation tolerance tier for this row, percent (see
    /// [`tolerance_pct`]).
    pub tolerance_pct: f64,
    /// Whether `deviation_pct <= tolerance_pct` (vacuously true when no
    /// flow binds here).
    pub within_tolerance: bool,
}

/// The validation tolerance tier for a bottleneck row, percent.
///
/// Three regimes (EXPERIMENTS.md §off-dumbbell):
/// - **multi-flow, video-only** (5 %): the regime the paper's Eq. 6
///   analysis speaks to; the water-fill tracks it within ~2 %.
/// - **sole-flow, video-only** (12 %): a lone flow's `C + α/β` fixed
///   point implies ~5 % sustained loss, and at that low loop gain the
///   rate limit-cycles around the fixed point in a ~10 % envelope rather
///   than pinning it — a characterized steady-state orbit, not noise.
/// - **TCP-crossed** (30 %): the reference models PELS video +
///   deterministic CBR only; stochastic TCP herds sharing the egress are
///   unmodeled.
pub fn tolerance_pct(n_bound: usize, n_tcp: usize) -> f64 {
    if n_tcp > 0 {
        30.0
    } else if n_bound <= 1 {
        12.0
    } else {
        5.0
    }
}

/// The serializable summary of a topo run. Byte-identical across worker
/// counts for a fixed spec.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopoReport {
    /// Generator family (`parkinglot` / `fattree` / `waxman`).
    pub family: String,
    /// Spec seed.
    pub seed: u64,
    /// Router count.
    pub n_routers: usize,
    /// Routers carrying a designated AQM egress.
    pub n_aqm: usize,
    /// Endpoint host count.
    pub n_hosts: usize,
    /// Video flow count (including departed ones).
    pub n_flows: usize,
    /// TCP cross-flow count.
    pub n_tcp: usize,
    /// Shards the partitioner produced.
    pub n_shards: usize,
    /// Conservative window, microseconds (0 for component partitions).
    pub lookahead_us: u64,
    /// Links crossing a shard boundary (cut quality; lower is better).
    pub cut_links: usize,
    /// Simulated horizon, seconds.
    pub duration_s: f64,
    /// Events processed across all shards. Transmissions that end on an
    /// idle port are not events (`pels_netsim::port`), so this counts
    /// arrivals, timers and the completions that dequeue.
    pub events: u64,
    /// Mean decode utility across receivers (paper Eq. 3).
    pub mean_utility: f64,
    /// Total in-order TCP packets delivered.
    pub tcp_delivered: u64,
    /// The MKC offset `α/β`, kb/s.
    pub offset_kbps: f64,
    /// Per-bottleneck validation rows, sorted by (router, next hop).
    pub bottlenecks: Vec<BottleneckRow>,
    /// Largest `deviation_pct` over bottlenecks with bound flows.
    pub max_abs_deviation_pct: f64,
    /// Whether every row sits within its tolerance tier ([`tolerance_pct`]).
    pub all_within_tolerance: bool,
}

/// A generated topology running on the sharded engine.
pub struct TopoScenario {
    /// The underlying sharded simulator.
    pub sim: ShardedSimulator,
    spec: TopoSpec,
    model: TopoModel,
    /// Agent ids by role, for typed access through [`TopoScenario::sim`].
    pub ids: RoleIds,
    bottlenecks: Vec<Bottleneck>,
    cut_links: usize,
}

impl TopoScenario {
    /// Generates, compiles, partitions, and instantiates the spec.
    pub fn try_build(spec: TopoSpec) -> Result<Self, SimError> {
        let model = generate(&spec)?;
        Self::try_from_model(model, spec)
    }

    /// Instantiates an already-generated model (used by tests that tweak a
    /// model before running it).
    pub fn try_from_model(model: TopoModel, spec: TopoSpec) -> Result<Self, SimError> {
        let compiled = compile(&model, &spec)?;
        let partition = Partition::auto(&compiled.graph);
        let shard = |a: AgentId| partition.shard_of[a.0 as usize];
        let edges = compiled.graph.edges().iter();
        let cut_links = edges.filter(|&&(a, b, _)| shard(a) != shard(b)).count();
        let sim = ShardedSimulator::new(spec.seed(), &partition, compiled.agents);
        Ok(TopoScenario {
            sim,
            spec,
            model,
            ids: compiled.ids,
            bottlenecks: compiled.bottlenecks,
            cut_links,
        })
    }

    /// Sets the worker thread count (wall clock only; results are fixed by
    /// the partition).
    pub fn set_workers(&mut self, workers: usize) {
        self.sim.set_workers(workers);
    }

    /// Runs until simulated time `t`.
    pub fn run_until(&mut self, t: SimTime) {
        self.sim.run_until(t);
    }

    /// The generated model.
    pub fn model(&self) -> &TopoModel {
        &self.model
    }

    /// The bottleneck table.
    pub fn bottlenecks(&self) -> &[Bottleneck] {
        &self.bottlenecks
    }

    /// Video flows starved by the degradation policy.
    pub fn starved_flows(&self) -> usize {
        self.ids.starved_flows(&self.sim)
    }

    /// Mean measured source rate across video flows, kb/s.
    pub fn mean_rate_kbps(&self) -> f64 {
        self.ids.mean_rate_kbps(&self.sim)
    }

    /// See [`RoleIds::flush_telemetry`].
    pub fn flush_telemetry(&self, telemetry: &pels_telemetry::Telemetry, full: bool) {
        self.ids.flush_telemetry(&self.sim, telemetry, full);
    }

    /// The max-min + offset prediction at the current horizon.
    pub fn prediction(&self) -> Prediction {
        let horizon = self.sim.now() - SimTime::ZERO;
        maxmin::predict(&self.model, &self.bottlenecks, horizon, &MkcConfig::default())
    }

    /// Summarizes the run: engine stats plus the per-bottleneck
    /// predicted-vs-measured table.
    pub fn report(&self) -> TopoReport {
        let horizon = self.sim.now() - SimTime::ZERO;
        let prediction = self.prediction();
        let n_video = self.ids.sources.len();
        let measured_kbps: Vec<f64> = (0..n_video)
            .map(|v| self.sim.agent::<PelsSource>(self.ids.sources[v]).rate_bps() / 1e3)
            .collect();

        let mut rows = Vec::with_capacity(self.bottlenecks.len());
        let mut max_dev = 0.0f64;
        for (bi, bn) in self.bottlenecks.iter().enumerate() {
            let active: Vec<usize> = bn
                .video_flows
                .iter()
                .copied()
                .filter(|&v| maxmin::active_at(&self.model, v, horizon))
                .collect();
            let bound: Vec<usize> =
                active.iter().copied().filter(|&v| prediction.bound_at[v] == Some(bi)).collect();
            let predicted = bound.first().and_then(|&v| prediction.flow_kbps[v]).unwrap_or(0.0);
            let measured = if bound.is_empty() {
                0.0
            } else {
                bound.iter().map(|&v| measured_kbps[v]).sum::<f64>() / bound.len() as f64
            };
            let deviation_pct = if bound.is_empty() || predicted <= 0.0 {
                0.0
            } else {
                (measured - predicted).abs() / predicted * 100.0
            };
            if !bound.is_empty() {
                max_dev = max_dev.max(deviation_pct);
            }
            let tolerance = tolerance_pct(bound.len(), bn.tcp_flows);
            rows.push(BottleneckRow {
                router: bn.router,
                next_hop: bn.next_hop,
                pels_capacity_kbps: bn.pels_capacity.as_kbps(),
                cbr_load_kbps: bn.cbr_load_bps / 1e3,
                n_video: active.len(),
                n_bound: bound.len(),
                predicted_kbps: predicted,
                measured_kbps: measured,
                deviation_pct,
                n_tcp: bn.tcp_flows,
                tolerance_pct: tolerance,
                within_tolerance: bound.is_empty() || deviation_pct <= tolerance,
            });
        }
        let all_within_tolerance = rows.iter().all(|r| r.within_tolerance);

        let mean_utility = if self.ids.receivers.is_empty() {
            0.0
        } else {
            self.ids
                .receivers
                .iter()
                .map(|&id| self.sim.agent::<PelsReceiver>(id).utility().utility())
                .sum::<f64>()
                / self.ids.receivers.len() as f64
        };
        let tcp_delivered =
            self.ids.tcp_sinks.iter().map(|&id| self.sim.agent::<TcpSink>(id).delivered()).sum();

        TopoReport {
            family: self.model.family.clone(),
            seed: self.spec.seed(),
            n_routers: self.model.n_routers,
            n_aqm: self.ids.aqm_routers.len(),
            n_hosts: self.model.hosts.len(),
            n_flows: n_video,
            n_tcp: self.ids.tcp_sources.len(),
            n_shards: self.sim.n_shards(),
            lookahead_us: self
                .sim
                .lookahead()
                .map_or(0, |d| (d.as_secs_f64() * 1e6).round() as u64),
            cut_links: self.cut_links,
            duration_s: horizon.as_secs_f64(),
            events: self.sim.events_processed(),
            mean_utility,
            tcp_delivered,
            offset_kbps: prediction.offset_kbps,
            bottlenecks: rows,
            max_abs_deviation_pct: max_dev,
            all_within_tolerance,
        }
    }
}

/// Renders a [`TopoReport`] as CSV: one line per designated bottleneck,
/// each carrying the run context (the `results/topo_*.csv` artifacts).
pub fn to_csv(report: &TopoReport) -> String {
    let mut out = String::from(
        "family,seed,duration_s,n_shards,router,next_hop,capacity_kbps,cbr_kbps,\
         n_video,n_bound,n_tcp,predicted_kbps,measured_kbps,deviation_pct,\
         tolerance_pct,within_tolerance\n",
    );
    for b in &report.bottlenecks {
        out.push_str(&format!(
            "{},{},{:.1},{},{},{},{:.1},{:.1},{},{},{},{:.1},{:.1},{:.2},{:.0},{}\n",
            report.family,
            report.seed,
            report.duration_s,
            report.n_shards,
            b.router,
            b.next_hop,
            b.pels_capacity_kbps,
            b.cbr_load_kbps,
            b.n_video,
            b.n_bound,
            b.n_tcp,
            b.predicted_kbps,
            b.measured_kbps,
            b.deviation_pct,
            b.tolerance_pct,
            b.within_tolerance
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parking_lot_runs_and_validates() {
        let spec = TopoSpec::from_shorthand("parkinglot:segments=2,cross=1,flows=3").unwrap();
        let mut sc = TopoScenario::try_build(spec).unwrap();
        // Leftover-capacity flows converge slowly (low loop gain when the
        // bottleneck price is small), so validate at a long horizon.
        sc.run_until(SimTime::from_secs_f64(30.0));
        let report = sc.report();
        assert_eq!(report.family, "parkinglot");
        assert_eq!(report.bottlenecks.len(), 2);
        assert!(report.events > 0);
        // Every bottleneck binds someone: 2 segments, long + cross flows.
        assert!(report.bottlenecks.iter().all(|b| b.n_video > 0));
        assert!(
            report.max_abs_deviation_pct < 15.0,
            "stationary rates should track the max-min + offset reference, got {:#?}",
            report.bottlenecks
        );
        assert!(
            report.all_within_tolerance,
            "every row must sit inside its tier, got {:#?}",
            report.bottlenecks
        );
    }

    #[test]
    fn fat_tree_rows_validate_within_their_tolerance_tiers() {
        // The checked-in `results/topo_fattree.csv` scenario: sole-flow edge
        // bottlenecks sharing their egress with TCP herds. Historically the
        // 28.5 % worst row was excluded as "characterized"; now every row
        // must sit inside its stated tier (TCP-crossed 30 %, sole-flow
        // video-only 12 %, multi-flow 5 %).
        let spec = TopoSpec::from_shorthand("fattree:k=4,flows=8,seed=1").unwrap();
        let mut sc = TopoScenario::try_build(spec).unwrap();
        sc.run_until(SimTime::from_secs_f64(30.0));
        let report = sc.report();
        let bound_rows: Vec<_> = report.bottlenecks.iter().filter(|b| b.n_bound > 0).collect();
        assert!(!bound_rows.is_empty(), "fat-tree edge links must bind flows");
        assert!(
            bound_rows.iter().any(|b| b.n_bound == 1),
            "the k=4 fat-tree scenario exists to exercise sole-flow rows"
        );
        for b in &report.bottlenecks {
            assert!(
                b.within_tolerance,
                "bottleneck {}->{} deviates {:.2}% > tier {:.0}% (n_bound {}, n_tcp {})",
                b.router, b.next_hop, b.deviation_pct, b.tolerance_pct, b.n_bound, b.n_tcp
            );
        }
        assert!(report.all_within_tolerance);
    }

    #[test]
    fn fat_tree_end_to_end_byte_identical_across_workers() {
        // The parking lot is the paper's Section 5.2 multi-router shape (the
        // max-loss override between two AQM hops) on a delay-cut partition.
        for shape in ["fattree:k=4,flows=8,seed=3", "parkinglot:segments=2,flows=4"] {
            let spec = TopoSpec::from_shorthand(shape).unwrap();
            let reports: Vec<String> = [1usize, 2]
                .iter()
                .map(|&w| {
                    let mut sc = TopoScenario::try_build(spec.clone()).unwrap();
                    sc.set_workers(w);
                    sc.run_until(SimTime::from_secs_f64(5.0));
                    serde_json::to_string(&sc.report()).unwrap()
                })
                .collect();
            assert_eq!(reports[0], reports[1], "{shape}");
        }
    }

    #[test]
    fn every_aqm_router_is_scraped_under_its_own_name() {
        use pels_core::router::AqmRouter;
        let mut spec = TopoSpec::from_shorthand("parkinglot:segments=2,flows=4").unwrap();
        spec.keep_series = Some(true);
        let mut sc = TopoScenario::try_build(spec).unwrap();
        sc.run_until(SimTime::from_secs_f64(5.0));
        let snap = sc.ids.scrape(&sc.sim, true);
        let routers = &sc.ids.aqm_routers;
        assert_eq!(routers.len(), 2);
        // Eq. 11's price is per router: one series each, point for point the
        // router's own, and the two segments do not share a price.
        let p = |i: usize| &snap.series[&format!("sim.router{}.p", routers[i].0)];
        for (i, &id) in routers.iter().enumerate() {
            let own = &sc.sim.agent::<AqmRouter>(id).feedback_series;
            assert!(own.len() > 100, "T = 30 ms over 5 s");
            assert_eq!(p(i), &own.points, "router {}", id.0);
        }
        assert_ne!(p(0), p(1));
    }
}
