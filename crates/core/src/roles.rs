//! Agent ids by role, and the run summaries that need nothing else.
//!
//! Every scenario front-end — the dumbbell [`crate::scenario::Scenario`]
//! and `pels_topo`'s generated topologies — ends up with the same thing: a
//! [`ShardedSimulator`] and the ids of its routers, video endpoints and TCP
//! endpoints. What can be said about a run from those two alone is written
//! here once.

use crate::receiver::PelsReceiver;
use crate::router::AqmRouter;
use crate::source::PelsSource;
use pels_fgs::decoder::UtilityStats;
use pels_netsim::packet::AgentId;
use pels_netsim::shard::ShardedSimulator;
use pels_telemetry::Telemetry;

/// Agent ids of every role in a built scenario.
#[derive(Debug, Clone, Default)]
pub struct RoleIds {
    /// Every router: for the dumbbell, each cluster's AQM router then its
    /// far-side router; for a generated topology, indexed by model router.
    pub routers: Vec<AgentId>,
    /// The subset of `routers` carrying an AQM bottleneck port, in order.
    pub aqm_routers: Vec<AgentId>,
    /// Video sources, in flow order.
    pub sources: Vec<AgentId>,
    /// Video receivers, in flow order.
    pub receivers: Vec<AgentId>,
    /// TCP sources.
    pub tcp_sources: Vec<AgentId>,
    /// TCP sinks.
    pub tcp_sinks: Vec<AgentId>,
}

impl RoleIds {
    /// Attaches a telemetry handle to every instrumented agent: the AQM
    /// routers and each video source and receiver share (clones of) the
    /// same registry. Disabled handles keep all hot paths single-branch
    /// no-ops.
    pub fn attach_telemetry(&self, sim: &mut ShardedSimulator, telemetry: &Telemetry) {
        for &id in &self.aqm_routers {
            sim.agent_mut::<AqmRouter>(id).set_telemetry(telemetry.clone());
        }
        for &id in &self.sources {
            sim.agent_mut::<PelsSource>(id).set_telemetry(telemetry.clone());
        }
        for &id in &self.receivers {
            sim.agent_mut::<PelsReceiver>(id).set_telemetry(telemetry.clone());
        }
    }

    /// Scrapes engine-level gauges (event-loop progress, AQM queue
    /// occupancy) into `telemetry` and flushes one snapshot stamped with
    /// the current simulation time to every attached sink.
    pub fn flush_telemetry(&self, sim: &ShardedSimulator, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.gauge_set("sim.events", sim.events_processed() as f64);
        let queued: usize = self
            .aqm_routers
            .iter()
            .map(|&r| sim.agent::<AqmRouter>(r).port(0).discipline().len_packets())
            .sum();
        telemetry.gauge_set("sim.router.queue_pkts", queued as f64);
        telemetry.flush(sim.now().as_secs_f64());
    }

    /// Aggregate decode utility across all video flows.
    pub fn total_utility(&self, sim: &ShardedSimulator) -> UtilityStats {
        let mut total = UtilityStats::new();
        for &id in &self.receivers {
            total.merge(&sim.agent::<PelsReceiver>(id).utility());
        }
        total
    }

    /// Base-layer (green) drops summed over every AQM bottleneck port.
    pub fn green_drops(&self, sim: &ShardedSimulator) -> u64 {
        self.aqm_routers
            .iter()
            .map(|&id| sim.agent::<AqmRouter>(id).port(0).stats.drops_by_class[0])
            .sum()
    }

    /// Video flows starved by the degradation policy.
    pub fn starved_flows(&self, sim: &ShardedSimulator) -> usize {
        self.sources.iter().filter(|&&id| sim.agent::<PelsSource>(id).is_starved()).count()
    }

    /// Mean source rate across video flows, kb/s (0 when there are none).
    pub fn mean_rate_kbps(&self, sim: &ShardedSimulator) -> f64 {
        if self.sources.is_empty() {
            return 0.0;
        }
        self.sources.iter().map(|&id| sim.agent::<PelsSource>(id).rate_bps() / 1e3).sum::<f64>()
            / self.sources.len() as f64
    }
}
