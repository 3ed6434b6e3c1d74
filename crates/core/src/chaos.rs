//! Chaos harness: scripted fault scenarios on the Fig. 6 dumbbell.
//!
//! Each case builds the standard two-flow PELS scenario, installs one
//! [`FaultSchedule`] (link failure, bandwidth degradation, control-packet
//! mangling, total feedback loss, router queue flush), runs to completion,
//! and checks the protocol's recovery invariants:
//!
//! * **Rate recovery** — every flow's MKC rate ends within
//!   [`RATE_TOLERANCE`] of the Lemma 6 stationary rate
//!   `r* = C/N + α/β`, and reaches that band within
//!   [`RECOVERY_EPOCH_BUDGET`] control steps of the fault clearing.
//! * **Green delivery** — the base layer survives the fault: at least
//!   [`GREEN_DELIVERY_FLOOR`] of all green packets sent are delivered.
//!
//! Runs are pure functions of the seed, so a report is reproducible
//! bit-for-bit; the `chaos` binary (and `pels chaos`) verifies this by
//! running the matrix twice and comparing serialized reports.

use crate::scenario::{pels_flows, Scenario, ScenarioConfig};
use crate::SimError;
use pels_netsim::error::invalid_config;
use pels_netsim::faults::{ControlFaultPolicy, FaultSchedule};
use pels_netsim::packet::AgentId;
use pels_netsim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Relative tolerance around the Lemma 6 stationary rate.
pub const RATE_TOLERANCE: f64 = 0.10;
/// Minimum fraction of sent green (base-layer) packets that must arrive.
pub const GREEN_DELIVERY_FLOOR: f64 = 0.99;
/// Control steps allowed between the fault clearing and the rate
/// re-entering the tolerance band.
pub const RECOVERY_EPOCH_BUDGET: u64 = 20;

/// The machine-checked recovery bar a chaos case must clear, shared by
/// the simulator matrix here and the wire matrix in `pels_wire::chaos`
/// (which runs a tighter [`rate_tolerance`](Self::rate_tolerance)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryInvariants {
    /// The Lemma 6 stationary rate `r* = C/N + α/β`, bits/s.
    pub r_star_bps: f64,
    /// Relative half-width of the acceptance band around `r*`.
    pub rate_tolerance: f64,
    /// Minimum fraction of sent green (base-layer) packets delivered.
    pub green_floor: f64,
}

impl RecoveryInvariants {
    /// Whether `rate_bps` is inside the acceptance band around `r*`.
    pub fn rate_ok(&self, rate_bps: f64) -> bool {
        (rate_bps - self.r_star_bps).abs() <= self.rate_tolerance * self.r_star_bps
    }

    /// Whether a green delivery ratio clears the base-layer floor.
    pub fn green_ok(&self, delivery: f64) -> bool {
        delivery >= self.green_floor
    }
}

/// One scripted fault case of the *wire* recovery matrix
/// (`pels chaos --wire`, implemented in `pels_wire::chaos`). The type
/// lives here so reports and tooling share one vocabulary with the
/// simulator's [`ChaosCase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireChaosCase {
    /// The receiver's feedback path (ACK/NACK/HELLO) blacks out.
    FeedbackBlackout,
    /// A heavy loss burst on the source→router data path.
    DataLossBurst,
    /// Corruption and truncation storm on the router's forwarding path.
    CorruptionStorm,
    /// The receiver dies mid-stream and a replacement joins.
    ReceiverChurn,
    /// Duplicate/reorder flood on both data and feedback paths.
    DupReorderFlood,
    /// Large one-way delay on the feedback path only.
    AsymmetricDelay,
}

impl WireChaosCase {
    /// All cases, in matrix order.
    pub const ALL: [WireChaosCase; 6] = [
        WireChaosCase::FeedbackBlackout,
        WireChaosCase::DataLossBurst,
        WireChaosCase::CorruptionStorm,
        WireChaosCase::ReceiverChurn,
        WireChaosCase::DupReorderFlood,
        WireChaosCase::AsymmetricDelay,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            WireChaosCase::FeedbackBlackout => "feedback-blackout",
            WireChaosCase::DataLossBurst => "data-loss-burst",
            WireChaosCase::CorruptionStorm => "corruption-storm",
            WireChaosCase::ReceiverChurn => "receiver-churn",
            WireChaosCase::DupReorderFlood => "dup-reorder-flood",
            WireChaosCase::AsymmetricDelay => "asymmetric-delay",
        }
    }
}

/// One scripted fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChaosCase {
    /// No faults: sanity-checks the invariants themselves.
    Baseline,
    /// The bottleneck link goes fully down during the fault window.
    LinkOutage,
    /// The bottleneck serves at 35% of nominal rate during the window.
    DegradedLink,
    /// 30% of control packets dropped, 20% duplicated, 20% reordered.
    FeedbackMangling,
    /// Every ACK/NACK is lost: sources must detect staleness and back off.
    StaleFeedback,
    /// The bottleneck router's queues are flushed (simulated reboot).
    RouterFlush,
}

impl ChaosCase {
    /// All cases, in matrix order.
    pub const ALL: [ChaosCase; 6] = [
        ChaosCase::Baseline,
        ChaosCase::LinkOutage,
        ChaosCase::DegradedLink,
        ChaosCase::FeedbackMangling,
        ChaosCase::StaleFeedback,
        ChaosCase::RouterFlush,
    ];

    /// Stable human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosCase::Baseline => "baseline",
            ChaosCase::LinkOutage => "link-outage",
            ChaosCase::DegradedLink => "degraded-link",
            ChaosCase::FeedbackMangling => "feedback-mangling",
            ChaosCase::StaleFeedback => "stale-feedback",
            ChaosCase::RouterFlush => "router-flush",
        }
    }
}

/// PELS video flows in every case.
const FLOWS: usize = 2;

/// Parameters shared by every case of a chaos run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Simulator seed (the whole report is a pure function of it).
    pub seed: u64,
    /// Total simulated time per case.
    pub duration: SimDuration,
    /// When the fault begins.
    pub fault_from: SimDuration,
    /// When the fault clears (instantaneous faults fire at `fault_from`).
    pub fault_to: SimDuration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            duration: SimDuration::from_secs_f64(30.0),
            fault_from: SimDuration::from_secs_f64(10.0),
            fault_to: SimDuration::from_secs_f64(11.5),
        }
    }
}

impl ChaosConfig {
    fn validate(&self) -> Result<(), SimError> {
        if self.fault_from >= self.fault_to {
            return Err(invalid_config("fault window must end after it starts"));
        }
        if self.fault_to >= self.duration {
            return Err(invalid_config(
                "the run must extend past the fault window to measure recovery",
            ));
        }
        Ok(())
    }
}

/// Per-case outcome and invariant verdicts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CaseReport {
    /// Case name (see [`ChaosCase::name`]).
    pub name: String,
    /// Lemma 6 stationary rate for this topology, kb/s.
    pub r_star_kbps: f64,
    /// Final MKC rate per flow, kb/s.
    pub final_rate_kbps: Vec<f64>,
    /// Every flow ended within [`RATE_TOLERANCE`] of `r*`.
    pub rate_ok: bool,
    /// Green packets sent across all flows.
    pub green_sent: u64,
    /// Green packets delivered across all flows.
    pub green_received: u64,
    /// `green_received / green_sent`.
    pub green_delivery: f64,
    /// `green_delivery >= GREEN_DELIVERY_FLOOR`.
    pub green_ok: bool,
    /// Control steps after the fault cleared until flow 0 re-entered the
    /// rate band (`None`: never did).
    pub recovery_epochs: Option<u64>,
    /// `recovery_epochs` exists and is within [`RECOVERY_EPOCH_BUDGET`].
    pub recovery_ok: bool,
    /// Stale-feedback decays applied across all sources.
    pub stale_decays: u64,
    /// Frames that shed red or all enhancement across all sources.
    pub shed_frames: u64,
    /// Fault events dispatched by the simulator.
    pub faults_applied: u64,
    /// Control packets dropped by the fault policy.
    pub control_dropped: u64,
    /// Control packets duplicated by the fault policy.
    pub control_duplicated: u64,
    /// Control packets reordered by the fault policy.
    pub control_reordered: u64,
    /// All invariants held.
    pub ok: bool,
}

/// The whole matrix outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Seed the matrix ran under.
    pub seed: u64,
    /// Simulated seconds per case.
    pub duration_s: f64,
    /// Per-case reports, in [`ChaosCase::ALL`] order.
    pub cases: Vec<CaseReport>,
    /// Every case's invariants held.
    pub all_ok: bool,
}

/// Renders a [`ChaosReport`] as the CSV layout of `results/chaos.csv`: one
/// row per case, with `recovery_epochs` −1 for a flow that never re-entered
/// the rate band.
pub fn to_csv(report: &ChaosReport) -> String {
    let mut out =
        String::from("case,green_delivery,recovery_epochs,stale_decays,faults_applied,ok\n");
    for c in &report.cases {
        out.push_str(&format!(
            "{},{:.4},{},{},{},{}\n",
            c.name,
            c.green_delivery,
            c.recovery_epochs.map_or_else(|| "-1".to_string(), |e| e.to_string()),
            c.stale_decays,
            c.faults_applied,
            c.ok
        ));
    }
    out
}

/// The fault schedule `case` installs on the dumbbell under `cfg`'s window.
pub fn schedule_for(case: ChaosCase, cfg: &ChaosConfig) -> FaultSchedule {
    let r1 = AgentId(0); // scenario layout: agent 0 is the AQM bottleneck
    let from = SimTime::from_secs_f64(cfg.fault_from.as_secs_f64());
    let to = SimTime::from_secs_f64(cfg.fault_to.as_secs_f64());
    let mut s = FaultSchedule::new();
    match case {
        ChaosCase::Baseline => {}
        ChaosCase::LinkOutage => {
            s.link_outage(r1, 0, from, to);
        }
        ChaosCase::DegradedLink => {
            s.degraded_window(r1, 0, 0.35, from, to);
        }
        ChaosCase::FeedbackMangling => {
            let policy = ControlFaultPolicy {
                drop: 0.3,
                duplicate: 0.2,
                reorder: 0.2,
                reorder_delay: SimDuration::from_millis(20),
            };
            s.control_fault_window(policy, from, to);
        }
        ChaosCase::StaleFeedback => {
            s.control_fault_window(ControlFaultPolicy::drop_fraction(1.0), from, to);
        }
        ChaosCase::RouterFlush => {
            s.flush_at(r1, from);
        }
    }
    s
}

/// Runs one fault case and evaluates its invariants. The case's end state
/// is scraped into `telemetry` (a disabled handle skips the scrape).
pub fn run_case(
    case: ChaosCase,
    cfg: &ChaosConfig,
    telemetry: &pels_telemetry::Telemetry,
) -> Result<CaseReport, SimError> {
    cfg.validate()?;
    let sc = ScenarioConfig {
        seed: cfg.seed,
        flows: pels_flows(&[0.0; FLOWS]),
        keep_series: true,
        ..Default::default()
    };
    let mut s = Scenario::try_build(sc)?;
    s.install_faults(&schedule_for(case, cfg));
    s.run_until(SimTime::from_secs_f64(cfg.duration.as_secs_f64()));
    s.flush_telemetry(telemetry, true);

    let n = FLOWS;
    let pels_capacity = s.config().bottleneck.scale(s.config().aqm.pels_share);
    let r_star = s
        .source(0)
        .mkc()
        .ok_or_else(|| invalid_config("chaos flows must run MKC"))?
        .stationary_rate_bps(pels_capacity, n);
    let invariants = RecoveryInvariants {
        r_star_bps: r_star,
        rate_tolerance: RATE_TOLERANCE,
        green_floor: GREEN_DELIVERY_FLOOR,
    };
    let band = |rate_bps: f64| invariants.rate_ok(rate_bps);

    let final_rate_kbps: Vec<f64> = (0..n).map(|i| s.source(i).rate_bps() / 1_000.0).collect();
    let rate_ok = (0..n).map(|i| s.source(i).rate_bps()).all(band);

    let mut green_sent = 0;
    let mut green_received = 0;
    let mut stale_decays = 0;
    let mut shed_frames = 0;
    for i in 0..n {
        let src = s.source(i);
        green_sent += src.sent_by_color[0];
        shed_frames += src.control().shed_red_frames() + src.control().shed_yellow_frames();
        stale_decays += src.mkc().map_or(0, |m| m.stale_decays());
        green_received += s.receiver(i).received_by_color[0];
    }
    let green_delivery =
        if green_sent > 0 { green_received as f64 / green_sent as f64 } else { 0.0 };
    let green_ok = green_sent > 0 && invariants.green_ok(green_delivery);

    // Control steps of flow 0 after the fault cleared, until back in band.
    let clear_s = cfg.fault_to.as_secs_f64();
    let recovery_epochs = s
        .source(0)
        .rate_series
        .points
        .iter()
        .filter(|(t, _)| *t >= clear_s)
        .position(|(_, kbps)| band(kbps * 1_000.0))
        .map(|i| i as u64);
    let recovery_ok = recovery_epochs.is_some_and(|e| e <= RECOVERY_EPOCH_BUDGET);

    let fs = s.sim.fault_stats();
    let ok = rate_ok && green_ok && recovery_ok;
    Ok(CaseReport {
        name: case.name().to_string(),
        r_star_kbps: r_star / 1_000.0,
        final_rate_kbps,
        rate_ok,
        green_sent,
        green_received,
        green_delivery,
        green_ok,
        recovery_epochs,
        recovery_ok,
        stale_decays,
        shed_frames,
        faults_applied: fs.faults_applied,
        control_dropped: fs.control_dropped,
        control_duplicated: fs.control_duplicated,
        control_reordered: fs.control_reordered,
        ok,
    })
}

/// Runs every [`ChaosCase`] and aggregates the verdicts. Each case is its
/// own simulator, so `telemetry` receives one full scrape per case.
pub fn run_matrix(
    cfg: &ChaosConfig,
    telemetry: &pels_telemetry::Telemetry,
) -> Result<ChaosReport, SimError> {
    cfg.validate()?;
    let mut cases = Vec::with_capacity(ChaosCase::ALL.len());
    for case in ChaosCase::ALL {
        cases.push(run_case(case, cfg, telemetry)?);
    }
    let all_ok = cases.iter().all(|c| c.ok);
    Ok(ChaosReport { seed: cfg.seed, duration_s: cfg.duration.as_secs_f64(), cases, all_ok })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_telemetry::Telemetry;

    fn short_cfg() -> ChaosConfig {
        ChaosConfig {
            seed: 3,
            duration: SimDuration::from_secs_f64(14.0),
            fault_from: SimDuration::from_secs_f64(6.0),
            fault_to: SimDuration::from_secs_f64(7.5),
        }
    }

    #[test]
    fn baseline_invariants_hold() {
        let r = run_case(ChaosCase::Baseline, &short_cfg(), &Telemetry::disabled()).unwrap();
        assert!(r.ok, "{r:?}");
        assert_eq!(r.faults_applied, 0);
        assert_eq!(r.stale_decays, 0);
    }

    #[test]
    fn link_outage_recovers_and_keeps_green() {
        let r = run_case(ChaosCase::LinkOutage, &short_cfg(), &Telemetry::disabled()).unwrap();
        assert!(r.rate_ok, "{r:?}");
        assert!(r.green_ok, "green delivery {}", r.green_delivery);
        assert!(r.recovery_ok, "recovery epochs {:?}", r.recovery_epochs);
        assert!(r.stale_decays > 0, "outage starves feedback");
    }

    #[test]
    fn stale_feedback_decays_then_recovers() {
        let r = run_case(ChaosCase::StaleFeedback, &short_cfg(), &Telemetry::disabled()).unwrap();
        assert!(r.ok, "{r:?}");
        assert!(r.stale_decays > 0);
        assert!(r.control_dropped > 0);
    }

    #[test]
    fn case_reports_are_deterministic() {
        let cfg = short_cfg();
        let a = serde_json::to_string(
            &run_case(ChaosCase::FeedbackMangling, &cfg, &Telemetry::disabled()).unwrap(),
        );
        let b = serde_json::to_string(
            &run_case(ChaosCase::FeedbackMangling, &cfg, &Telemetry::disabled()).unwrap(),
        );
        assert_eq!(a.unwrap(), b.unwrap());
    }

    #[test]
    fn rejects_degenerate_windows() {
        let mut cfg = short_cfg();
        cfg.fault_to = cfg.fault_from;
        assert!(run_case(ChaosCase::Baseline, &cfg, &Telemetry::disabled()).is_err());
        let mut cfg = short_cfg();
        cfg.fault_to = cfg.duration + SimDuration::from_secs_f64(1.0);
        assert!(run_matrix(&cfg, &Telemetry::disabled()).is_err());
    }
}
