//! The fault vocabulary of both stacks, and the simulator's injector.
//!
//! A fault applies in a [`FaultWindow`]; a packet's [`Fate`] is one uniform
//! draw over the cumulative partition `[drop | duplicate | reorder | delay
//! | truncate | corrupt | pass]` ([`Fate::draw`]), so at most one fault
//! applies per packet and a zero fraction never perturbs the others; every
//! partition passes [`validate_fractions`]. The wire's injector is
//! `pels_wire::faults::FaultTransport`; the simulator's is here.
//!
//! A [`FaultSchedule`] is a list of `(time, target, action)` triples
//! installed into a [`crate::shard::ShardedSimulator`] *before or during*
//! a run, never into its past; each becomes an [`crate::event::Event::Fault`] in the ordinary event
//! queue, so faults interleave with traffic in the same deterministic
//! `(time, seq)` order as every other event and are counted in
//! [`FaultStats`]. A run is still a pure function of (topology, seed, schedule). Actions are:
//!
//! * **Agent-targeted** ([`FaultAction::LinkDown`], [`FaultAction::LinkUp`],
//!   [`FaultAction::DegradeLink`], [`FaultAction::FlushQueues`]) — dispatched
//!   to the target agent's [`crate::sim::Agent::on_fault`] hook, which
//!   manipulates its own ports ([`apply_port_fault`] does the heavy lifting
//!   for any port-owning agent).
//! * **Simulator-global** ([`FaultAction::SetControlPolicy`],
//!   [`FaultAction::ClearControlPolicy`]) — while a [`ControlFaultPolicy`]
//!   is active, each arriving control packet (ACK/NACK) draws its fate
//!   from the destination agent's stream.
//!
//! A downed port stops serializing; offered packets still pass through the
//! queue discipline (and may be tail-dropped there), so nothing leaks from
//! the conservation accounting, and on link-up the port drains its backlog.
//! A queue flush counts every discarded packet as a drop for the same
//! reason.

use crate::packet::AgentId;
use crate::port::Port;
use crate::sim::Context;
use crate::time::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Target id used for simulator-global fault actions; never dispatched to an
/// agent, so any value works — this one makes intent obvious in a debugger.
pub const GLOBAL: AgentId = AgentId(u32::MAX);

/// A half-open interval of run time, `[from, to)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// When the window opens.
    pub from: SimTime,
    /// When the window closes (exclusive).
    pub to: SimTime,
}

impl FaultWindow {
    /// Whether `now` falls inside the window.
    pub fn contains(self, now: SimTime) -> bool {
        now >= self.from && now < self.to
    }

    /// The one check of a window, in both stacks: it must end after it
    /// starts.
    pub fn validate(self) -> Result<(), String> {
        if self.from < self.to {
            Ok(())
        } else {
            Err("fault window must end after it starts".into())
        }
    }
}

/// One packet's drawn fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered untouched.
    Pass,
    /// Silently discarded.
    Drop,
    /// Delivered now and again after a hold.
    Duplicate,
    /// Held so later traffic overtakes it.
    Reorder,
    /// Held for a policy's delay.
    Delay,
    /// Clipped to a shorter prefix (the wire only).
    Truncate,
    /// Delivered with flipped bits (the wire only).
    Corrupt,
}

impl Fate {
    /// The faults in partition order: a policy's `i`-th fraction is the
    /// probability of `FAULTS[i]`.
    pub const FAULTS: [Fate; 6] =
        [Fate::Drop, Fate::Duplicate, Fate::Reorder, Fate::Delay, Fate::Truncate, Fate::Corrupt];

    /// One packet's fate from one uniform draw over the cumulative
    /// partition `fractions` (in [`Fate::FAULTS`] order; fates past the end
    /// of a shorter list have probability zero). The running sum adds left
    /// to right, so a given draw lands on the same fate in both stacks.
    pub fn draw(fractions: &[f64], rng: &mut impl Rng) -> Fate {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (fate, frac) in Fate::FAULTS.iter().zip(fractions) {
            acc += frac;
            if u < acc {
                return *fate;
            }
        }
        Fate::Pass
    }
}

/// Float rounding a partition's sum may carry past 1: `0.34 + 0.56 + 0.10`
/// sums to `1.0000000000000002`.
const SUM_SLACK: f64 = 1e-12;

/// The one rule for a fate partition, in both stacks: each fraction in
/// `[0, 1]`, their sum at most 1 (plus `SUM_SLACK` of rounding).
pub fn validate_fractions(fractions: &[f64]) -> Result<(), String> {
    if let Some(f) = fractions.iter().find(|f| !(0.0..=1.0).contains(*f)) {
        return Err(format!("fault probability {f} outside [0, 1]"));
    }
    let sum: f64 = fractions.iter().sum();
    if sum > 1.0 + SUM_SLACK {
        return Err(format!("fault probabilities sum to {sum} > 1"));
    }
    Ok(())
}

/// Probabilistic mangling applied to arriving control packets (ACK/NACK)
/// while the policy is installed: the first three fates of the partition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlFaultPolicy {
    /// Fraction of control packets silently discarded.
    pub drop: f64,
    /// Fraction delivered twice (the copy arrives `reorder_delay` later).
    pub duplicate: f64,
    /// Fraction delayed by `reorder_delay`, letting later packets overtake.
    pub reorder: f64,
    /// Extra delay applied to duplicated and reordered control packets.
    pub reorder_delay: SimDuration,
}

impl ControlFaultPolicy {
    /// A policy that only drops control packets.
    pub fn drop_fraction(drop: f64) -> Self {
        ControlFaultPolicy {
            drop,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_delay: SimDuration::from_millis(10),
        }
    }

    /// The partition [`Fate::draw`] reads.
    pub fn fractions(&self) -> [f64; 3] {
        [self.drop, self.duplicate, self.reorder]
    }
}

/// One fault, applied at a scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Cut a link: the port stops serializing (its queue keeps filling).
    LinkDown {
        /// Port index within the target agent.
        port: usize,
    },
    /// Restore a link; the port resumes draining its backlog.
    LinkUp {
        /// Port index within the target agent.
        port: usize,
    },
    /// Scale a link's *nominal* rate by `factor` (1.0 restores it).
    DegradeLink {
        /// Port index within the target agent.
        port: usize,
        /// Multiplier applied to the rate the port was built with.
        factor: f64,
    },
    /// Discard every queued packet on all of the agent's ports (a router
    /// reboot). Flushed packets count as drops in port statistics.
    FlushQueues,
    /// Install a simulator-global control-packet mangling policy.
    SetControlPolicy(ControlFaultPolicy),
    /// Remove the control-packet policy.
    ClearControlPolicy,
}

/// A `(time, target, action)` triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// The agent whose ports it manipulates ([`GLOBAL`] for policy actions).
    pub agent: AgentId,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered script of faults. Build one with the fluent helpers, then
/// install it with [`crate::shard::ShardedSimulator::install_faults`].
///
/// # Examples
///
/// ```
/// use pels_netsim::faults::FaultSchedule;
/// use pels_netsim::packet::AgentId;
/// use pels_netsim::time::SimTime;
///
/// let mut faults = FaultSchedule::new();
/// faults.link_outage(
///     AgentId(0),
///     0,
///     SimTime::from_secs_f64(5.0),
///     SimTime::from_secs_f64(7.0),
/// );
/// assert_eq!(faults.events().len(), 2); // down + up
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one fault.
    pub fn push(&mut self, at: SimTime, agent: AgentId, action: FaultAction) -> &mut Self {
        self.events.push(FaultEvent { at, agent, action });
        self
    }

    /// Applies `open` to `agent` at `from` and `close` at `to`.
    ///
    /// # Panics
    ///
    /// Panics unless `[from, to)` passes [`FaultWindow::validate`].
    fn during(
        &mut self,
        agent: AgentId,
        from: SimTime,
        to: SimTime,
        open: FaultAction,
        close: FaultAction,
    ) -> &mut Self {
        FaultWindow { from, to }.validate().unwrap_or_else(|e| panic!("{e}"));
        self.push(from, agent, open).push(to, agent, close)
    }

    /// Cut `agent`'s port `port` at `from` and restore it at `to`.
    pub fn link_outage(
        &mut self,
        agent: AgentId,
        port: usize,
        from: SimTime,
        to: SimTime,
    ) -> &mut Self {
        self.during(agent, from, to, FaultAction::LinkDown { port }, FaultAction::LinkUp { port })
    }

    /// Degrade `agent`'s port `port` to `factor` of nominal rate during
    /// `[from, to)`, restoring full rate at `to`.
    pub fn degraded_window(
        &mut self,
        agent: AgentId,
        port: usize,
        factor: f64,
        from: SimTime,
        to: SimTime,
    ) -> &mut Self {
        let restore = FaultAction::DegradeLink { port, factor: 1.0 };
        self.during(agent, from, to, FaultAction::DegradeLink { port, factor }, restore)
    }

    /// Mangle control packets per `policy` during `[from, to)`.
    pub fn control_fault_window(
        &mut self,
        policy: ControlFaultPolicy,
        from: SimTime,
        to: SimTime,
    ) -> &mut Self {
        let (set, clear) = (FaultAction::SetControlPolicy(policy), FaultAction::ClearControlPolicy);
        self.during(GLOBAL, from, to, set, clear)
    }

    /// Reboot `agent` (flush every queue) at `at`.
    pub fn flush_at(&mut self, agent: AgentId, at: SimTime) -> &mut Self {
        self.push(at, agent, FaultAction::FlushQueues)
    }

    /// Checks every action, so a schedule installs whole or not at all:
    /// only control policies can be invalid.
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        for ev in &self.events {
            if let FaultAction::SetControlPolicy(p) = ev.action {
                validate_fractions(&p.fractions()).map_err(crate::error::invalid_config)?;
            }
        }
        Ok(())
    }

    /// The scripted faults, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

/// Counters kept by the simulator for control-plane faults.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fault events dispatched (agent-targeted and global).
    pub faults_applied: u64,
    /// Control packets discarded by the active policy.
    pub control_dropped: u64,
    /// Control packets duplicated by the active policy.
    pub control_duplicated: u64,
    /// Control packets delayed (reordered) by the active policy.
    pub control_reordered: u64,
}

/// Applies an agent-targeted fault to a slice of ports. Any port-owning
/// agent can implement [`crate::sim::Agent::on_fault`] with a one-line call
/// to this. Global policy actions are no-ops here (the simulator absorbs
/// them before dispatch).
pub fn apply_port_fault(ports: &mut [Port], action: &FaultAction, ctx: &mut Context<'_>) {
    match *action {
        FaultAction::LinkDown { port } => {
            if let Some(p) = ports.get_mut(port) {
                p.set_link_up(false);
            }
        }
        FaultAction::LinkUp { port } => {
            if let Some(p) = ports.get_mut(port) {
                p.set_link_up(true);
                p.restart(ctx);
            }
        }
        FaultAction::DegradeLink { port, factor } => {
            if let Some(p) = ports.get_mut(port) {
                p.set_rate_factor(factor);
            }
        }
        FaultAction::FlushQueues => {
            for p in ports.iter_mut() {
                p.flush(ctx);
            }
        }
        FaultAction::SetControlPolicy(_) | FaultAction::ClearControlPolicy => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn schedule_builders_order_and_count() {
        let mut s = FaultSchedule::new();
        s.link_outage(AgentId(1), 0, SimTime::from_nanos(10), SimTime::from_nanos(20))
            .flush_at(AgentId(2), SimTime::from_nanos(15))
            .control_fault_window(
                ControlFaultPolicy::drop_fraction(0.5),
                SimTime::from_nanos(5),
                SimTime::from_nanos(25),
            );
        assert_eq!(s.events().len(), 5);
        assert!(matches!(s.events()[0].action, FaultAction::LinkDown { port: 0 }));
        assert_eq!(s.events()[2].agent, AgentId(2));
        assert_eq!(s.events()[3].agent, GLOBAL);
    }

    #[test]
    fn a_draw_lands_where_the_cumulative_sums_put_it() {
        let fractions = [0.2, 0.1, 0.3];
        let (mut rng, mut same) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
        for _ in 0..1_000 {
            let u: f64 = same.gen();
            let want = if u < 0.2 {
                Fate::Drop
            } else if u < 0.2 + 0.1 {
                Fate::Duplicate
            } else if u < 0.2 + 0.1 + 0.3 {
                Fate::Reorder
            } else {
                Fate::Pass
            };
            assert_eq!(Fate::draw(&fractions, &mut rng), want, "u = {u}");
        }
    }

    #[test]
    fn policy_validation() {
        let valid = |p: ControlFaultPolicy| validate_fractions(&p.fractions()).is_ok();
        assert!(valid(ControlFaultPolicy::drop_fraction(0.3)));
        assert!(!valid(ControlFaultPolicy::drop_fraction(1.5)));
        let p = ControlFaultPolicy {
            drop: 0.6,
            duplicate: 0.3,
            reorder: 0.3,
            reorder_delay: SimDuration::from_millis(1),
        };
        assert!(!valid(p));
        // 0.34 + 0.56 + 0.10 sums to 1.0000000000000002 in f64.
        assert!(valid(ControlFaultPolicy { drop: 0.34, duplicate: 0.56, reorder: 0.10, ..p }));
        assert!(!valid(ControlFaultPolicy::drop_fraction(f64::NAN)));
    }

    #[test]
    #[should_panic(expected = "fault window must end after it starts")]
    fn rejects_inverted_outage() {
        FaultSchedule::new().link_outage(
            AgentId(0),
            0,
            SimTime::from_nanos(20),
            SimTime::from_nanos(10),
        );
    }
}
