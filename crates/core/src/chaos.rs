//! Chaos harness: scripted fault scenarios, and the recovery checks both
//! stacks run them under.
//!
//! Both fault matrices — the simulator's here, the wire's in
//! `pels_wire::chaos` — take one [`ChaosConfig`], judge each case with
//! [`RecoveryInvariants`] and run through [`run_cases`]; each brings its
//! own cases, injector and bounds. The simulator's cases install one
//! [`FaultSchedule`] (link failure, bandwidth degradation, control-packet
//! mangling, total feedback loss, router queue flush) on the two-flow PELS
//! dumbbell and check that every flow's MKC rate ends within
//! [`RATE_TOLERANCE`] of the Lemma 6 rate `r* = C/N + α/β`, re-entering
//! that band within [`RECOVERY_EPOCH_BUDGET`] control steps of the fault
//! clearing, and that at least [`GREEN_DELIVERY_FLOOR`] of the green
//! (base-layer) packets sent arrive. A report is a pure function of the
//! seed; `results/chaos.csv` is the matrix at its defaults.

use crate::feedback::FEEDBACK_INTERVAL;
use crate::scenario::{pels_flows, Scenario, ScenarioConfig};
use crate::SimError;
use pels_netsim::error::invalid_config;
use pels_netsim::faults::{ControlFaultPolicy, FaultSchedule, FaultWindow};
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

/// Run time a case needs after its fault window: the recovery budget's
/// control steps at one per feedback interval.
const OBSERVE: SimDuration =
    SimDuration::from_nanos(RECOVERY_EPOCH_BUDGET * FEEDBACK_INTERVAL.as_nanos());

/// The machine-checked recovery bar a chaos case must clear, in both
/// stacks (the wire runs tighter bounds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryInvariants {
    /// The Lemma 6 stationary rate `r* = C/N + α/β`, bits/s.
    pub r_star_bps: f64,
    /// Relative half-width of the acceptance band around `r*`.
    pub rate_tolerance: f64,
    /// Minimum fraction of sent green (base-layer) packets delivered.
    pub green_floor: f64,
    /// The longest recovery that passes, in the stack's unit (control
    /// steps in the simulator, seconds on the wire).
    pub recovery_budget: f64,
}

/// One case's verdicts against its [`RecoveryInvariants`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Every final rate sits inside the band around `r*`.
    pub rate_ok: bool,
    /// `received / sent` green packets (0 when none were sent).
    pub green_delivery: f64,
    /// Green packets were sent and their delivery cleared the floor.
    pub green_ok: bool,
    /// The rate re-entered the band within the recovery budget.
    pub recovery_ok: bool,
}

impl Verdict {
    /// All three invariants held.
    pub fn ok(&self) -> bool {
        self.rate_ok && self.green_ok && self.recovery_ok
    }
}

impl RecoveryInvariants {
    /// Whether `rate_bps` is inside the acceptance band around `r*`.
    pub fn rate_ok(&self, rate_bps: f64) -> bool {
        (rate_bps - self.r_star_bps).abs() <= self.rate_tolerance * self.r_star_bps
    }

    /// Judges a case: its final rates, the green packets sent and
    /// received over the measured span, and how long the rate took to
    /// re-enter the band (`None`: it never did).
    pub fn verdict(
        &self,
        final_rates_bps: impl IntoIterator<Item = f64>,
        green_sent: u64,
        green_received: u64,
        recovery: Option<f64>,
    ) -> Verdict {
        let green_delivery =
            if green_sent > 0 { green_received as f64 / green_sent as f64 } else { 0.0 };
        Verdict {
            rate_ok: final_rates_bps.into_iter().all(|r| self.rate_ok(r)),
            green_delivery,
            green_ok: green_sent > 0 && green_delivery >= self.green_floor,
            recovery_ok: recovery.is_some_and(|r| r <= self.recovery_budget),
        }
    }
}

/// Parameters shared by every case of a chaos run, in either stack.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed of every random stream (the whole report is a pure function
    /// of it).
    pub seed: u64,
    /// Run time per case.
    pub duration: SimDuration,
    /// When the fault applies (instantaneous faults fire at its start);
    /// recovery is measured from its end.
    pub window: FaultWindow,
}

impl Default for ChaosConfig {
    /// The simulator's matrix: 30 s per case, faults from 10 s to 11.5 s.
    fn default() -> Self {
        ChaosConfig {
            seed: 1,
            duration: SimDuration::from_secs(30),
            window: FaultWindow {
                from: SimTime::from_secs_f64(10.0),
                to: SimTime::from_secs_f64(11.5),
            },
        }
    }
}

impl ChaosConfig {
    /// Checks the schedule is coherent and leaves `observe` of run time
    /// after the window, what the stack needs to measure recovery.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self, observe: SimDuration) -> Result<(), String> {
        self.window.validate()?;
        if self.window.from == SimTime::ZERO {
            return Err("fault window must start after t=0".into());
        }
        let needed = self.window.to.saturating_add(observe);
        if SimTime::ZERO.saturating_add(self.duration) < needed {
            return Err(format!(
                "duration {:.2} s leaves no room to observe recovery (need {:.2} s)",
                self.duration.as_secs_f64(),
                needed.as_secs_f64()
            ));
        }
        Ok(())
    }
}

/// The matrix loop of both stacks: runs every case in order, each on an
/// engine of its own, and reports whether every case's `ok` held. Stops at
/// the first error.
pub fn run_cases<C: Copy, R, E>(
    cases: &[C],
    run: impl FnMut(C) -> Result<R, E>,
    ok: impl Fn(&R) -> bool,
) -> Result<(Vec<R>, bool), E> {
    let reports = cases.iter().copied().map(run).collect::<Result<Vec<R>, E>>()?;
    let all_ok = reports.iter().all(ok);
    Ok((reports, all_ok))
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
    let FaultWindow { from, to } = cfg.window;
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
    cfg.validate(OBSERVE).map_err(invalid_config)?;
    let sc = ScenarioConfig {
        seed: cfg.seed,
        flows: pels_flows(&[0.0; FLOWS]),
        keep_series: true,
        ..Default::default()
    };
    let mut s = Scenario::try_build(sc)?;
    s.sim.install_faults(&schedule_for(case, cfg))?;
    s.run_until(SimTime::ZERO.saturating_add(cfg.duration));
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
        recovery_budget: RECOVERY_EPOCH_BUDGET as f64,
    };

    let final_rates_bps: Vec<f64> = (0..n).map(|i| s.source(i).rate_bps()).collect();
    let sum = |count: &dyn Fn(usize) -> u64| (0..n).map(count).sum::<u64>();
    let green_sent = sum(&|i| s.source(i).sent_by_color[0]);
    let green_received = sum(&|i| s.receiver(i).received_by_color[0]);
    let stale_decays = sum(&|i| s.source(i).mkc().map_or(0, |m| m.stale_decays()));
    let shed_frames = sum(&|i| {
        let control = s.source(i).control();
        control.shed_red_frames() + control.shed_yellow_frames()
    });

    // Control steps of flow 0 after the fault cleared, until back in band.
    let clear_s = cfg.window.to.as_secs_f64();
    let recovery_epochs = s
        .source(0)
        .rate_series
        .points
        .iter()
        .filter(|(t, _)| *t >= clear_s)
        .position(|(_, kbps)| invariants.rate_ok(kbps * 1_000.0))
        .map(|i| i as u64);
    let verdict = invariants.verdict(
        final_rates_bps.iter().copied(),
        green_sent,
        green_received,
        recovery_epochs.map(|e| e as f64),
    );

    let fs = s.sim.fault_stats();
    Ok(CaseReport {
        name: case.name().to_string(),
        r_star_kbps: r_star / 1_000.0,
        final_rate_kbps: final_rates_bps.iter().map(|r| r / 1_000.0).collect(),
        rate_ok: verdict.rate_ok,
        green_sent,
        green_received,
        green_delivery: verdict.green_delivery,
        green_ok: verdict.green_ok,
        recovery_epochs,
        recovery_ok: verdict.recovery_ok,
        stale_decays,
        shed_frames,
        faults_applied: fs.faults_applied,
        control_dropped: fs.control_dropped,
        control_duplicated: fs.control_duplicated,
        control_reordered: fs.control_reordered,
        ok: verdict.ok(),
    })
}

/// Runs every [`ChaosCase`] and aggregates the verdicts. Each case is its
/// own simulator, so `telemetry` receives one full scrape per case.
pub fn run_matrix(
    cfg: &ChaosConfig,
    telemetry: &pels_telemetry::Telemetry,
) -> Result<ChaosReport, SimError> {
    let (cases, all_ok) =
        run_cases(&ChaosCase::ALL, |case| run_case(case, cfg, telemetry), |c| c.ok)?;
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
            window: FaultWindow {
                from: SimTime::from_secs_f64(6.0),
                to: SimTime::from_secs_f64(7.5),
            },
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
        cfg.window.to = cfg.window.from;
        assert!(run_case(ChaosCase::Baseline, &cfg, &Telemetry::disabled()).is_err());
        let mut cfg = short_cfg();
        cfg.window.to = SimTime::ZERO + cfg.duration + SimDuration::from_secs_f64(1.0);
        assert!(run_matrix(&cfg, &Telemetry::disabled()).is_err());
    }
}
