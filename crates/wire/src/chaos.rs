//! The wire recovery matrix behind `pels chaos --wire`: six scripted fault
//! cases ([`WireChaosCase`]) against the stack that ships.
//!
//! Every case runs a [`ServeLoop`](crate::serve::ServeLoop) streaming to a
//! [`WireReceiver`](crate::WireReceiver), built and driven by the same
//! `Session` as `pels live`, over the in-memory hub with a
//! [`FaultTransport`](crate::FaultTransport) around each endpoint and a
//! [`ManualClock`], so runs are bit-reproducible. The cases cover the
//! failure axes a datagram path has: feedback blackout, data loss bursts,
//! byte corruption, receiver churn, duplicate/reorder floods, asymmetric
//! delay. Config, invariants and loop are the simulator matrix's
//! (`pels_core::chaos`), with tighter bounds: after the window clears, the
//! rate must re-enter [`WIRE_RATE_TOLERANCE`] of Lemma 6's `r*` within
//! [`WIRE_RECOVERY_BUDGET`], post-settle green delivery must clear
//! [`WIRE_GREEN_FLOOR`], and the case's fault must show in the counters
//! it targets. Whatever bytes the faults mutate, neither endpoint panics:
//! undecodable packets are counted `decode_errors`.

use crate::faults::{Blackout, FaultDirection};
use crate::faults::{LiveFaults, WireFaultPolicy, WireFaultSpec, WireFaultTotals};
use crate::live::{LiveBackend, LiveConfig, Session, RECEIVER_ADDR, SERVER_ADDR};
use crate::transport::MemHub;
use pels_core::chaos::{run_cases, ChaosConfig, RecoveryInvariants};
use pels_core::mkc::{MkcConfig, MkcController};
use pels_netsim::clock::ManualClock;
use pels_netsim::faults::FaultWindow;
use pels_netsim::time::{SimDuration, SimTime};
use pels_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

/// One scripted fault case of the wire recovery matrix.
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

/// Relative band around `r*` the wire stack must re-enter after a fault.
/// Tighter than the simulator matrix's 10%: the wire path has no
/// cross-traffic, so a healthy recovery lands very close to Lemma 6.
pub const WIRE_RATE_TOLERANCE: f64 = 0.05;

/// Post-settle green (base layer) delivery floor. Slightly below the
/// simulator's 0.99 to absorb packets cut in half by the stop deadline.
pub const WIRE_GREEN_FLOOR: f64 = 0.98;

/// Time after the fault window clears within which the rate must re-enter
/// the `r*` band.
pub const WIRE_RECOVERY_BUDGET: SimDuration = SimDuration::from_secs(4);

/// Width of the trailing window the rate invariant averages over. MKC
/// oscillates around `r*` with an amplitude near the band width, so a
/// point sample would pass or fail on phase luck; the windowed mean is
/// the operating point the Lemma cares about.
const RATE_WINDOW: SimDuration = SimDuration::from_secs(1);

/// Settling slack after the fault clears before green delivery is
/// measured: in-flight damage (held reorder buffers, ARQ repair of
/// faulted packets) is allowed to wash out first.
const GREEN_SETTLE: SimDuration = SimDuration::from_millis(500);

/// Run time a case needs after its fault window: the settling slack, then
/// the whole recovery budget.
pub const OBSERVE: SimDuration =
    SimDuration::from_nanos(GREEN_SETTLE.as_nanos() + WIRE_RECOVERY_BUDGET.as_nanos());

/// `pels chaos --wire`: twelve seconds per case — ~4.5 s for the startup
/// transient to damp, a 1.5 s fault window, then 6 s of observed recovery,
/// comfortably more than the 4 s recovery budget.
pub fn default_config() -> ChaosConfig {
    ChaosConfig {
        seed: 1,
        duration: SimDuration::from_secs(12),
        window: FaultWindow { from: SimTime::from_secs_f64(4.5), to: SimTime::from_secs_f64(6.0) },
    }
}

/// The CI-sized preset behind `pels chaos --wire --short`: 10 s per case
/// with a 1 s fault window ending at 5.5 s. The onset cannot move earlier
/// — MKC's startup transient rings until ~4 s, and a fault injected
/// mid-transient measures the transient, not recovery.
pub fn short_config() -> ChaosConfig {
    ChaosConfig {
        duration: SimDuration::from_secs(10),
        window: FaultWindow { from: SimTime::from_secs_f64(4.5), to: SimTime::from_secs_f64(5.5) },
        ..default_config()
    }
}

/// Per-case verdict of the wire matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireCaseReport {
    /// Case name (stable, kebab-case).
    pub name: String,
    /// The Lemma 6 stationary rate for this topology.
    pub r_star_kbps: f64,
    /// Trailing 1 s mean of the flow's rate at the stop deadline.
    pub final_rate_kbps: f64,
    /// Whether the final rate sits within the ±5% band around `r*`.
    pub rate_ok: bool,
    /// Green packets sent after the post-fault settling point.
    pub green_sent_post_fault: u64,
    /// Green packets delivered after the settling point.
    pub green_received_post_fault: u64,
    /// `received / sent` over the post-settle window (may exceed 1 when
    /// ARQ repairs of in-fault losses land late).
    pub green_delivery_post_fault: f64,
    /// Whether post-settle green delivery cleared [`WIRE_GREEN_FLOOR`].
    pub green_ok: bool,
    /// Seconds after `fault_to` until the rate re-entered the band
    /// (`None` if it never did).
    pub recovery_s: Option<f64>,
    /// Whether recovery happened within [`WIRE_RECOVERY_BUDGET`].
    pub recovery_ok: bool,
    /// Stale-feedback decays applied by the flow's watchdog.
    pub watchdog_trips: u64,
    /// Base-layer repairs the server queued in answer to NACKs.
    pub retransmissions: u64,
    /// Retransmitted packets that arrived (ARQ recoveries).
    pub recovered_packets: u64,
    /// Undecodable packets counted at the server and the receiver.
    pub decode_errors: u64,
    /// Flow-table evictions at the server.
    pub evictions: u64,
    /// HELLO control frames the server ingested.
    pub hellos_seen: u64,
    /// Fault decisions actually taken, summed over every endpoint.
    pub faults: WireFaultTotals,
    /// Whether the case-specific fault signals fired (proof the scripted
    /// fault actually exercised the machinery it targets).
    pub signal_ok: bool,
    /// The whole verdict: rate, green floor, recovery, and signals.
    pub ok: bool,
}

/// The full matrix verdict.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireChaosReport {
    /// Seed the matrix ran under.
    pub seed: u64,
    /// Per-case streaming time.
    pub duration_s: f64,
    /// One report per [`WireChaosCase::ALL`] entry, in order.
    pub cases: Vec<WireCaseReport>,
    /// Conjunction of every case's `ok`.
    pub all_ok: bool,
}

/// The fault spec each endpoint runs in `case`. Receiver churn is the one
/// fault the transports cannot express: both endpoints stay fault-free and
/// the run loop crashes and replaces the receiver instead.
fn script_for(case: WireChaosCase, cfg: &ChaosConfig) -> LiveFaults {
    let window = Some(cfg.window);
    // Distinct per-endpoint seeds: FaultTransport derives its own tx/rx
    // streams from each, so endpoints never share a decision sequence.
    let spec =
        |salt: u64| WireFaultSpec { seed: cfg.seed.wrapping_add(salt), ..Default::default() };
    let mut faults = LiveFaults { server: spec(1), receiver: spec(2) };
    match case {
        WireChaosCase::FeedbackBlackout => faults
            .receiver
            .blackouts
            .push(Blackout { window: cfg.window, direction: FaultDirection::Tx }),
        WireChaosCase::DataLossBurst => {
            faults.server.tx = WireFaultPolicy { drop: 0.3, window, ..Default::default() };
        }
        WireChaosCase::CorruptionStorm => {
            faults.server.tx =
                WireFaultPolicy { corrupt: 0.5, truncate: 0.2, window, ..Default::default() };
        }
        WireChaosCase::ReceiverChurn => {}
        WireChaosCase::DupReorderFlood => {
            let flood =
                WireFaultPolicy { duplicate: 0.25, reorder: 0.25, window, ..Default::default() };
            (faults.server.tx, faults.receiver.tx) = (flood, flood);
        }
        WireChaosCase::AsymmetricDelay => {
            faults.receiver.tx = WireFaultPolicy {
                delay: 1.0,
                delay_by: SimDuration::from_millis(50),
                window,
                ..Default::default()
            };
        }
    }
    faults
}

/// Runs one case of the matrix, with `telemetry` shared by both endpoints
/// and their fault transports.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a config that fails
/// [`ChaosConfig::validate`] with [`OBSERVE`]. The in-memory hub cannot
/// fail; any other `io::Error` would come from endpoint internals.
pub fn run_wire_case(
    cfg: &ChaosConfig,
    case: WireChaosCase,
    telemetry: &Telemetry,
) -> io::Result<WireCaseReport> {
    cfg.validate(OBSERVE).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let churn = case == WireChaosCase::ReceiverChurn;
    // Everything the config does not name is `pels live`'s default stream.
    let live = LiveConfig {
        duration: cfg.duration,
        backend: LiveBackend::Memory,
        telemetry: telemetry.clone(),
        faults: Some(script_for(case, cfg)),
        ..LiveConfig::default()
    };
    let invariants = RecoveryInvariants {
        r_star_bps: MkcController::new(MkcConfig::default())
            .stationary_rate_bps(live.pels_capacity(), 1),
        rate_tolerance: WIRE_RATE_TOLERANCE,
        green_floor: WIRE_GREEN_FLOOR,
        recovery_budget: WIRE_RECOVERY_BUDGET.as_secs_f64(),
    };

    let hub = MemHub::new();
    let clock = Arc::new(ManualClock::new());
    let (server_ep, rx_ep) = (hub.endpoint(SERVER_ADDR), hub.endpoint(RECEIVER_ADDR));
    let mut session = Session::wire_up(&live, clock, server_ep, rx_ep)?;

    // Churn bookkeeping: what the "crashed" first receiver had counted.
    let mut crashed = false;
    let mut carried_green_recv = 0u64;
    let mut carried_hellos = 0u64;

    let FaultWindow { from: fault_from, to: fault_to } = cfg.window;
    let settle = fault_to.saturating_add(GREEN_SETTLE);
    let mut settle_snapshot: Option<(u64, u64)> = None;
    let mut recovered_at: Option<SimTime> = None;
    // The flow's rate after each poll of the trailing [`RATE_WINDOW`] while
    // streaming (afterwards the window stays as the stop deadline left it).
    let stop = SimTime::ZERO.saturating_add(cfg.duration);
    let mut rate_window = VecDeque::new();
    let mut rate_sum = 0.0;
    session.run(|now, session| {
        if now < stop {
            let rate = session.flow().rate_bps;
            rate_window.push_back((now, rate));
            rate_sum += rate;
            while let Some(&(t, oldest)) = rate_window.front() {
                if now.duration_since(t) < RATE_WINDOW {
                    break;
                }
                rate_sum -= oldest;
                rate_window.pop_front();
            }
        }
        if churn && !crashed && now >= fault_from {
            // Crash: no BYE, the flow table only learns via idle timeout.
            if let Some(rx) = session.receiver.take() {
                carried_green_recv = rx.received_by_color[0];
                carried_hellos = rx.hellos_sent();
            }
            crashed = true;
        }
        if crashed && session.receiver.is_none() && now >= fault_to {
            // The replacement binds the same address (a fresh queue: what
            // was sent to the dead socket is gone) and registers itself
            // through its own HELLOs.
            session.start_receiver(hub.endpoint(RECEIVER_ADDR));
        }
        if now >= fault_to {
            let mean = rate_sum / rate_window.len() as f64;
            if recovered_at.is_none() && invariants.rate_ok(mean) {
                recovered_at = Some(now);
            }
            if settle_snapshot.is_none() && now >= settle {
                let recv = session.receiver.as_ref().map_or(0, |rx| rx.received_by_color[0]);
                let sent = session.server.report(now).paced_by_class[0];
                settle_snapshot = Some((sent, carried_green_recv + recv));
            }
        }
        Ok(())
    })?;

    // The flow as it stood at the stop deadline; the server once the BYE
    // and the drain are behind it.
    let flow = session.flow();
    let server = session.server.report(stop);
    let rx = session.receiver.as_ref();
    let (green_sent_at_settle, green_recv_at_settle) = settle_snapshot.unwrap_or((0, 0));
    let rx_green = rx.map_or(0, |rx| rx.received_by_color[0]);
    let green_sent_post = session.stopped().paced_by_class[0].saturating_sub(green_sent_at_settle);
    let green_recv_post = (carried_green_recv + rx_green).saturating_sub(green_recv_at_settle);
    let final_rate_bps = rate_sum / rate_window.len() as f64;
    let recovery_s = recovered_at.map(|t| t.duration_since(fault_to).as_secs_f64());
    let verdict =
        invariants.verdict([final_rate_bps], green_sent_post, green_recv_post, recovery_s);

    let faults = session.fault_totals();
    let recovered_packets = rx.map_or(0, |rx| rx.recovered_on_time);
    let hellos_sent = carried_hellos + rx.map_or(0, |rx| rx.hellos_sent());
    let decode_errors = server.decode_errors + rx.map_or(0, |rx| rx.decode_errors);
    // The silenced (or dead) receiver's flow was evicted, and the resumed
    // heartbeat registered it again: one BYE at the end empties the table.
    let reregistered = server.evictions >= 1 && server.byes == 1 && server.leaked_flows == 0;

    let signal_ok = match case {
        // The watchdog must also have decayed on stale feedback.
        WireChaosCase::FeedbackBlackout => flow.watchdog_trips > 0 && reregistered,
        WireChaosCase::DataLossBurst => faults.dropped > 0 && recovered_packets > 0,
        WireChaosCase::CorruptionStorm => faults.corrupted > 0 && decode_errors > 0,
        WireChaosCase::ReceiverChurn => reregistered && hellos_sent >= 2,
        WireChaosCase::DupReorderFlood => faults.duplicated > 0 && faults.reordered > 0,
        WireChaosCase::AsymmetricDelay => faults.delayed > 0,
    };

    Ok(WireCaseReport {
        name: case.name().to_string(),
        r_star_kbps: invariants.r_star_bps / 1_000.0,
        final_rate_kbps: final_rate_bps / 1_000.0,
        rate_ok: verdict.rate_ok,
        green_sent_post_fault: green_sent_post,
        green_received_post_fault: green_recv_post,
        green_delivery_post_fault: verdict.green_delivery,
        green_ok: verdict.green_ok,
        recovery_s,
        recovery_ok: verdict.recovery_ok,
        watchdog_trips: flow.watchdog_trips,
        retransmissions: flow.retransmissions,
        recovered_packets,
        decode_errors,
        evictions: server.evictions,
        hellos_seen: server.hellos,
        faults,
        signal_ok,
        ok: verdict.ok() && signal_ok,
    })
}

/// Runs all six cases of [`WireChaosCase::ALL`]; each case's session
/// publishes its own scrapes to `telemetry`.
///
/// # Errors
///
/// See [`run_wire_case`].
pub fn run_wire_matrix(cfg: &ChaosConfig, telemetry: &Telemetry) -> io::Result<WireChaosReport> {
    let (cases, all_ok) =
        run_cases(&WireChaosCase::ALL, |case| run_wire_case(cfg, case, telemetry), |c| c.ok)?;
    Ok(WireChaosReport { seed: cfg.seed, duration_s: cfg.duration.as_secs_f64(), cases, all_ok })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChaosConfig {
        short_config()
    }

    fn run_matrix() -> WireChaosReport {
        run_wire_matrix(&cfg(), &Telemetry::disabled()).unwrap()
    }

    #[test]
    fn validate_rejects_incoherent_schedules() {
        let mut bad = cfg();
        bad.window.to = bad.window.from;
        assert!(bad.validate(OBSERVE).is_err(), "empty fault window");
        let mut bad = cfg();
        bad.duration = SimDuration::from_secs(5);
        assert!(bad.validate(OBSERVE).is_err(), "no room for recovery");
        assert!(cfg().validate(OBSERVE).is_ok());
    }

    #[test]
    fn all_short_cases_recover() {
        let report = run_matrix();
        assert_eq!(report.cases.len(), 6);
        for c in &report.cases {
            assert!(
                c.ok,
                "case {} failed: rate_ok={} ({:.1} vs r*={:.1} kb/s) green_ok={} \
                 ({:.4}) recovery={:?} signal_ok={}",
                c.name,
                c.rate_ok,
                c.final_rate_kbps,
                c.r_star_kbps,
                c.green_ok,
                c.green_delivery_post_fault,
                c.recovery_s,
                c.signal_ok,
            );
        }
        assert!(report.all_ok);
    }

    #[test]
    fn matrix_is_deterministic() {
        let (a, b) = (run_matrix(), run_matrix());
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn faults_actually_fired_in_each_case() {
        let report = run_matrix();
        let by_name = |n: &str| {
            report.cases.iter().find(|c| c.name == n).unwrap_or_else(|| panic!("case {n}"))
        };
        assert!(by_name("feedback-blackout").faults.blackout_dropped > 0);
        assert!(by_name("data-loss-burst").faults.dropped > 0);
        assert!(by_name("corruption-storm").faults.corrupted > 0);
        assert!(by_name("dup-reorder-flood").faults.duplicated > 0);
        assert!(by_name("dup-reorder-flood").faults.reordered > 0);
        assert!(by_name("asymmetric-delay").faults.delayed > 0);
        assert_eq!(by_name("receiver-churn").faults.total(), 0, "churn is fault-free");
    }
}
