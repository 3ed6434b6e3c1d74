//! Agent ids by role, and the run summaries that need nothing else.
//!
//! Every scenario front-end — the dumbbell [`crate::scenario::Scenario`]
//! and `pels_topo`'s generated topologies — ends up with the same thing: a
//! [`ShardedSimulator`] and the ids of its routers, video endpoints and TCP
//! endpoints. What can be said about a run from those two alone is written
//! here once.

use crate::color::Color;
use crate::receiver::PelsReceiver;
use crate::router::AqmRouter;
use crate::source::PelsSource;
use pels_fgs::decoder::UtilityStats;
use pels_netsim::disc::Wrr;
use pels_netsim::packet::AgentId;
use pels_netsim::shard::ShardedSimulator;
use pels_telemetry::{Snapshot, Telemetry};
use std::any::Any;

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
    /// Reads the state the agents already keep into one snapshot — the
    /// simulator's one scrape. Every metric is named after its agent:
    /// `sim.router<id>.*` by the AQM router's [`AgentId`] (Eq. 11's `p` is a
    /// per-router quantity), `sim.flow<f>.*` by flow id. A `full` scrape adds
    /// the delay histograms and every series the agents kept
    /// (`keep_series`); without it the cost is a few integers per agent.
    pub fn scrape(&self, sim: &ShardedSimulator, full: bool) -> Snapshot {
        let mut snap = Snapshot::default();
        snap.set_gauge("sim.events", sim.events_processed() as f64);
        for &id in &self.aqm_routers {
            let r = sim.agent::<AqmRouter>(id);
            let name = |metric: &str| format!("sim.router{}.{metric}", id.0);
            let port = r.port(0);
            snap.counters.insert(name("feedback_ticks"), r.estimator().epoch());
            snap.counters.insert(name("random_drops"), r.random_drops);
            for color in Color::ALL {
                let drops = port.stats.drops_by_class[color.class() as usize];
                snap.counters.insert(name(&format!("drops.{}", color.name())), drops);
            }
            snap.set_gauge(name("queue_pkts"), port.discipline().len_packets() as f64);
            let disc: &dyn Any = port.discipline();
            if let Some(wrr) = disc.downcast_ref::<Wrr>() {
                snap.set_gauge(name("wrr_turns"), wrr.turns as f64);
            }
            if full {
                for (metric, series) in [
                    ("p", &r.feedback_series),
                    ("p_fgs", &r.fgs_loss_series),
                    ("p_green", &r.green_loss_series),
                    ("p_yellow", &r.yellow_loss_series),
                    ("p_red", &r.red_loss_series),
                    ("backlog_pkts", &r.backlog_series),
                    ("red_backlog_pkts", &r.red_backlog_series),
                ] {
                    snap.set_series(name(metric), series);
                }
            }
        }
        for &id in &self.sources {
            let s = sim.agent::<PelsSource>(id);
            let name = |metric: &str| format!("sim.flow{}.{metric}", s.flow().0);
            if let Some(mkc) = s.mkc() {
                snap.counters.insert(name("feedback_epochs"), mkc.updates());
                snap.counters.insert(name("stale_decays"), mkc.stale_decays());
            }
            if full {
                snap.set_series(name("rate_kbps"), &s.rate_series);
                snap.set_series(name("gamma"), &s.gamma_series);
                snap.set_series(name("fgs_loss"), &s.loss_series);
            }
        }
        for &id in &self.receivers {
            let r = sim.agent::<PelsReceiver>(id);
            let name = |metric: &str| format!("sim.flow{}.{metric}", r.flow().0);
            snap.counters.insert(name("nacks"), r.nacks_sent());
            snap.counters.insert(name("recovered"), r.recovered_on_time);
            snap.counters.insert(name("late_packets"), r.late_by_color.iter().sum());
            for (color, stat, hist, series) in r.delay_stats() {
                let delay = name(&format!("delay.{color}"));
                snap.set_stat(delay.as_str(), stat, hist.filter(|_| full));
                if full {
                    snap.set_series(delay, series);
                }
            }
        }
        snap
    }

    /// Publishes one [`RoleIds::scrape`], stamped with the current simulation
    /// time, to `telemetry` and its sinks. The flush that ends a run is
    /// `full`.
    pub fn flush_telemetry(&self, sim: &ShardedSimulator, telemetry: &Telemetry, full: bool) {
        if telemetry.is_enabled() {
            telemetry.publish(sim.now().as_secs_f64(), self.scrape(sim, full));
        }
    }

    /// Aggregate decode utility across all video flows.
    pub fn total_utility(&self, sim: &ShardedSimulator) -> UtilityStats {
        let mut total = UtilityStats::new();
        for &id in &self.receivers {
            total.merge(&sim.agent::<PelsReceiver>(id).utility());
        }
        total
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
