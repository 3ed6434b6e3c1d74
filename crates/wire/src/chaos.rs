//! The wire recovery matrix: six scripted fault cases against the wire
//! stack, each checked against machine-readable recovery invariants.
//!
//! This is the wire-layer sibling of `pels_core::chaos` (the simulator's
//! matrix). Instead of perturbing simulator internals, every case here
//! runs the stack that ships — a [`ServeLoop`](crate::serve::ServeLoop)
//! streaming to a [`WireReceiver`](crate::WireReceiver), built and driven
//! by the same [`Session`] as `pels live` — over the in-memory hub with a
//! [`FaultTransport`](crate::FaultTransport) wrapped around each endpoint,
//! timed by a [`ManualClock`] so runs are bit-reproducible. The cases
//! ([`WireChaosCase`]) cover the failure axes a datagram path actually
//! has: feedback blackout, data loss bursts, byte corruption, receiver
//! churn, duplicate/reorder floods, and asymmetric delay.
//!
//! After the fault window clears, every case must satisfy the
//! [`RecoveryInvariants`]:
//!
//! 1. **Rate re-convergence** — the flow's MKC rate returns to within
//!    5% of the Lemma 6 stationary point `r* = C/N + α/β` within
//!    [`WIRE_RECOVERY_BUDGET_S`] seconds of the fault clearing.
//! 2. **Base layer never starves** — once the path has settled, at least
//!    [`WIRE_GREEN_FLOOR`] of sent green packets are delivered.
//! 3. **No panic** — whatever bytes the faults mutate, both endpoints keep
//!    polling; undecodable packets surface as counted `decode_errors`.
//!
//! `pels chaos --wire` runs the whole matrix and fails loudly if any
//! invariant breaks.

use crate::faults::{Blackout, FaultDirection, FaultWindow};
use crate::faults::{LiveFaults, WireFaultPolicy, WireFaultSpec, WireFaultTotals};
use crate::live::{LiveBackend, LiveConfig, Session, RECEIVER_ADDR, SERVER_ADDR};
use crate::transport::MemHub;
use pels_core::chaos::{RecoveryInvariants, WireChaosCase};
use pels_core::mkc::{MkcConfig, MkcController};
use pels_netsim::clock::ManualClock;
use pels_netsim::time::{SimDuration, SimTime};
use pels_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

/// Relative band around `r*` the wire stack must re-enter after a fault.
/// Tighter than the simulator matrix's 10%: the wire path has no
/// cross-traffic, so a healthy recovery lands very close to Lemma 6.
pub const WIRE_RATE_TOLERANCE: f64 = 0.05;

/// Post-settle green (base layer) delivery floor. Slightly below the
/// simulator's 0.99 to absorb packets cut in half by the stop deadline.
pub const WIRE_GREEN_FLOOR: f64 = 0.98;

/// Seconds after the fault window clears within which the rate must
/// re-enter the `r*` band.
pub const WIRE_RECOVERY_BUDGET_S: f64 = 4.0;

/// Width of the trailing window the rate invariant averages over. MKC
/// oscillates around `r*` with an amplitude near the band width, so a
/// point sample would pass or fail on phase luck; the windowed mean is
/// the operating point the Lemma cares about.
const RATE_WINDOW: SimDuration = SimDuration::from_secs(1);

/// Settling slack after the fault clears before green delivery is
/// measured: in-flight damage (held reorder buffers, ARQ repair of
/// faulted packets) is allowed to wash out first.
const GREEN_SETTLE: SimDuration = SimDuration::from_millis(500);

/// Configuration of one wire-matrix run (shared by all six cases).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WireChaosConfig {
    /// Seed for every fault RNG stream (per-endpoint streams are derived,
    /// so one seed still decorrelates the two endpoints).
    pub seed: u64,
    /// Streaming time per case (frames stop; in-flight traffic drains).
    pub duration: SimDuration,
    /// Fault window start — late enough that MKC has converged to `r*`.
    pub fault_from: SimTime,
    /// Fault window end; recovery is measured from here.
    pub fault_to: SimTime,
}

impl Default for WireChaosConfig {
    /// Twelve seconds per case: ~4.5 s for the startup transient to damp,
    /// a 1.5 s fault window, then 6 s of observed recovery — comfortably
    /// more than the 4 s recovery budget.
    fn default() -> Self {
        WireChaosConfig {
            seed: 1,
            duration: SimDuration::from_secs(12),
            fault_from: SimTime::from_secs_f64(4.5),
            fault_to: SimTime::from_secs_f64(6.0),
        }
    }
}

impl WireChaosConfig {
    /// The CI-sized preset behind `pels chaos --wire --short`: 10 s per
    /// case with a 1 s fault window ending at 5.5 s. The onset cannot
    /// move earlier — MKC's startup transient rings until ~4 s, and a
    /// fault injected mid-transient measures the transient, not recovery.
    pub fn short() -> Self {
        WireChaosConfig {
            duration: SimDuration::from_secs(10),
            fault_from: SimTime::from_secs_f64(4.5),
            fault_to: SimTime::from_secs_f64(5.5),
            ..WireChaosConfig::default()
        }
    }

    /// Checks the schedule is coherent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.fault_from <= SimTime::ZERO {
            return Err("fault window must start after t=0".into());
        }
        if self.fault_from >= self.fault_to {
            return Err(format!(
                "fault window is empty: from {} ns, to {} ns",
                self.fault_from.as_nanos(),
                self.fault_to.as_nanos()
            ));
        }
        let end = SimTime::ZERO.saturating_add(self.duration);
        let needed = self
            .fault_to
            .saturating_add(GREEN_SETTLE)
            .saturating_add(SimDuration::from_secs_f64(WIRE_RECOVERY_BUDGET_S));
        if end < needed {
            return Err(format!(
                "duration {:.2} s leaves no room to observe recovery (need {:.2} s)",
                self.duration.as_secs_f64(),
                needed.as_secs_f64()
            ));
        }
        Ok(())
    }

    fn window(&self) -> FaultWindow {
        FaultWindow { from: self.fault_from, to: self.fault_to }
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
    /// Whether recovery happened within [`WIRE_RECOVERY_BUDGET_S`].
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
fn script_for(case: WireChaosCase, cfg: &WireChaosConfig) -> LiveFaults {
    let window = Some(cfg.window());
    // Distinct per-endpoint seeds: FaultTransport derives its own tx/rx
    // streams from each, so endpoints never share a decision sequence.
    let spec =
        |salt: u64| WireFaultSpec { seed: cfg.seed.wrapping_add(salt), ..Default::default() };
    let mut faults = LiveFaults { server: spec(1), receiver: spec(2) };
    match case {
        WireChaosCase::FeedbackBlackout => faults
            .receiver
            .blackouts
            .push(Blackout { window: cfg.window(), direction: FaultDirection::Tx }),
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
/// The in-memory hub cannot fail; any `io::Error` would come from endpoint
/// internals and is propagated.
///
/// # Panics
///
/// Panics if `cfg` fails [`WireChaosConfig::validate`].
pub fn run_wire_case(
    cfg: &WireChaosConfig,
    case: WireChaosCase,
    telemetry: &Telemetry,
) -> io::Result<WireCaseReport> {
    cfg.validate().expect("invalid wire chaos config");
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
    };

    let hub = MemHub::new();
    let clock = Arc::new(ManualClock::new());
    let (server_ep, rx_ep) = (hub.endpoint(SERVER_ADDR), hub.endpoint(RECEIVER_ADDR));
    let mut session = Session::wire_up(&live, clock, server_ep, rx_ep)?;

    // Churn bookkeeping: what the "crashed" first receiver had counted.
    let mut crashed = false;
    let mut carried_green_recv = 0u64;
    let mut carried_hellos = 0u64;

    let settle = cfg.fault_to.saturating_add(GREEN_SETTLE);
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
        if churn && !crashed && now >= cfg.fault_from {
            // Crash: no BYE, the flow table only learns via idle timeout.
            if let Some(rx) = session.receiver.take() {
                carried_green_recv = rx.received_by_color[0];
                carried_hellos = rx.hellos_sent();
            }
            crashed = true;
        }
        if crashed && session.receiver.is_none() && now >= cfg.fault_to {
            // The replacement binds the same address (a fresh queue: what
            // was sent to the dead socket is gone) and registers itself
            // through its own HELLOs.
            session.start_receiver(hub.endpoint(RECEIVER_ADDR));
        }
        if now >= cfg.fault_to {
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
    let green_delivery =
        if green_sent_post > 0 { green_recv_post as f64 / green_sent_post as f64 } else { 0.0 };
    let green_ok = green_sent_post > 0 && invariants.green_ok(green_delivery);

    let final_rate_bps = rate_sum / rate_window.len() as f64;
    let rate_ok = invariants.rate_ok(final_rate_bps);
    let recovery_s = recovered_at.map(|t| t.duration_since(cfg.fault_to).as_secs_f64());
    let recovery_ok = recovery_s.is_some_and(|s| s <= WIRE_RECOVERY_BUDGET_S);

    let faults = session.fault_totals();
    let recovered_packets = rx.map_or(0, |rx| rx.recovered_packets);
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

    let ok = rate_ok && green_ok && recovery_ok && signal_ok;
    Ok(WireCaseReport {
        name: case.name().to_string(),
        r_star_kbps: invariants.r_star_bps / 1_000.0,
        final_rate_kbps: final_rate_bps / 1_000.0,
        rate_ok,
        green_sent_post_fault: green_sent_post,
        green_received_post_fault: green_recv_post,
        green_delivery_post_fault: green_delivery,
        green_ok,
        recovery_s,
        recovery_ok,
        watchdog_trips: flow.watchdog_trips,
        retransmissions: flow.retransmissions,
        recovered_packets,
        decode_errors,
        evictions: server.evictions,
        hellos_seen: server.hellos,
        faults,
        signal_ok,
        ok,
    })
}

/// Runs all six cases of [`WireChaosCase::ALL`]; each case's session
/// publishes its own scrapes to `telemetry`.
///
/// # Errors
///
/// See [`run_wire_case`].
///
/// # Panics
///
/// Panics if `cfg` fails [`WireChaosConfig::validate`].
pub fn run_wire_matrix(
    cfg: &WireChaosConfig,
    telemetry: &Telemetry,
) -> io::Result<WireChaosReport> {
    let mut cases = Vec::with_capacity(WireChaosCase::ALL.len());
    for case in WireChaosCase::ALL {
        cases.push(run_wire_case(cfg, case, telemetry)?);
    }
    let all_ok = cases.iter().all(|c| c.ok);
    Ok(WireChaosReport { seed: cfg.seed, duration_s: cfg.duration.as_secs_f64(), cases, all_ok })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WireChaosConfig {
        WireChaosConfig::short()
    }

    fn run_matrix() -> WireChaosReport {
        run_wire_matrix(&cfg(), &Telemetry::disabled()).unwrap()
    }

    #[test]
    fn validate_rejects_incoherent_schedules() {
        let mut bad = cfg();
        bad.fault_to = bad.fault_from;
        assert!(bad.validate().is_err(), "empty fault window");
        let mut bad = cfg();
        bad.duration = SimDuration::from_secs(5);
        assert!(bad.validate().is_err(), "no room for recovery");
        assert!(cfg().validate().is_ok());
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
