//! One-flow sessions: a [`ServeLoop`] streaming to a [`WireReceiver`].
//!
//! [`run_live`] is `pels serve` and a decoding client at N = 1: the same
//! server loop `pels serve` runs for thousands of flows, with one
//! [`WireReceiver`] registered in its flow table, over either loopback UDP
//! (wall clock) or the in-memory hub (mock clock, bit-reproducible). It
//! produces the same [`ScenarioReport`] schema as the discrete-event
//! simulator — so `pels live` output can be compared field-for-field with
//! `pels run`, plotted by the same tooling, and written to the same CSV
//! layout. The wire chaos matrix ([`crate::chaos`]) drives the same
//! `Session` with a fault script and an observer.

use crate::faults::{FaultCounters, FaultTransport, LiveFaults, WireFaultSpec, WireFaultTotals};
use crate::receiver::{WireReceiver, WireReceiverConfig};
use crate::serve::{
    FlowView, ServeConfig, ServeLoop, ServeReport, SCRAPE_INTERVAL, SOCKET_BUFFER_BYTES,
};
use crate::transport::{MemHub, Transport, UdpTransport};
use pels_core::scenario::{FlowReport, ScenarioReport};
use pels_fgs::frame::VideoTrace;
use pels_netsim::clock::{Clock, ManualClock, MonotonicClock};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_telemetry::{Snapshot, Telemetry};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which transport carries the packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveBackend {
    /// Non-blocking UDP sockets on `127.0.0.1` (ephemeral ports), driven
    /// by wall time.
    UdpLoopback,
    /// The in-memory hub driven by a [`ManualClock`] stepping one
    /// millisecond per poll — deterministic, no wall-clock sensitivity.
    Memory,
}

/// Configuration of a live run. The control gains are the paper's
/// ([`ServeConfig::new`]'s defaults).
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Streaming time (the receiver then says BYE; in-flight packets drain).
    pub duration: SimDuration,
    /// Full bottleneck capacity; the PELS share gets `pels_share` of it.
    pub bottleneck: Rate,
    /// Fraction of the bottleneck reserved for PELS (paper: 0.5).
    pub pels_share: f64,
    /// The video being streamed (looped).
    pub trace: VideoTrace,
    /// Transport backend.
    pub backend: LiveBackend,
    /// Where the session publishes a scrape of both endpoints, once per
    /// second of run time and at exit. The default (disabled) handle skips
    /// the scrape; the endpoints never see it.
    pub telemetry: Telemetry,
    /// Scripted per-endpoint fault injection (`pels live --faults FILE`).
    /// `None` — and `Some(LiveFaults::default())` — leave every datagram
    /// untouched: the endpoints are still wrapped in
    /// [`FaultTransport`], but a passthrough spec never draws from its
    /// RNG, so the run is byte-identical to an unwrapped one.
    pub faults: Option<LiveFaults>,
}

impl Default for LiveConfig {
    /// Six seconds of a 20 fps stream whose 800-byte base layer sits at
    /// MKC's 128 kb/s floor — 120 frames, green always inside the PELS
    /// share, enhancement contending for the rest.
    fn default() -> Self {
        LiveConfig {
            duration: SimDuration::from_secs(6),
            bottleneck: Rate::from_mbps(4.0),
            pels_share: 0.5,
            trace: VideoTrace::constant(120, 20.0, 800, 30_000),
            backend: LiveBackend::UdpLoopback,
            telemetry: Telemetry::disabled(),
            faults: None,
        }
    }
}

impl LiveConfig {
    /// Checks the values that arrive from a command line or a file.
    ///
    /// # Errors
    ///
    /// `pels_share` must be in `(0, 1]`, the PELS share of the bottleneck
    /// must not round to 0 b/s, and the fault spec must pass
    /// [`LiveFaults::validate`].
    pub fn validate(&self) -> Result<(), String> {
        if !(self.pels_share > 0.0 && self.pels_share <= 1.0) {
            return Err(format!("pels_share must be in (0, 1]: {}", self.pels_share));
        }
        if self.pels_capacity().as_bps() == 0 {
            return Err("the PELS share of the bottleneck rounds to 0 b/s".into());
        }
        self.faults.as_ref().map_or(Ok(()), LiveFaults::validate)
    }

    /// The PELS share of the bottleneck: the server's capacity `C`.
    pub(crate) fn pels_capacity(&self) -> Rate {
        Rate::from_bps((self.bottleneck.as_bps() as f64 * self.pels_share).round() as u64)
    }
}

/// Wire-layer counters that have no slot in the simulator's report.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveStats {
    /// Base-layer repairs the server queued in answer to NACKs.
    pub retransmissions: u64,
    /// NACKs emitted by the receiver.
    pub nacks_sent: u64,
    /// Retransmitted packets that arrived (ARQ recoveries).
    pub recovered_packets: u64,
    /// Undecodable packets counted at the server and the receiver.
    pub decode_errors: u64,
    /// Packets abandoned at the server when their frame interval expired.
    pub abandoned_packets: u64,
    /// Fault decisions taken by the injected [`FaultTransport`]s, summed
    /// over both endpoints (all zero without `--faults`).
    pub faults: WireFaultTotals,
    /// Datagrams the UDP backend failed to hand to the kernel
    /// (`WouldBlock` / `ConnectionRefused`); always zero on the
    /// in-memory backend.
    pub udp_send_drops: u64,
}

/// Result of a live run: the simulator-schema report plus wire counters.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// Field-compatible with `pels run` output.
    pub report: ScenarioReport,
    /// Wire-only counters.
    pub stats: LiveStats,
}

/// The flow every one-flow session streams.
const FLOW: FlowId = FlowId(1);

/// Wire packet payload size of a one-flow session.
const PACKET_BYTES: u32 = 500;

/// Poll cadence: the mock clock's step, and the UDP loop's sleep.
const POLL_INTERVAL: SimDuration = SimDuration::from_millis(1);

/// How long a session keeps receiving after the BYE, so packets in flight
/// at the stop deadline still count toward the delivery ratio.
const DRAIN: SimDuration = SimDuration::from_millis(300);

/// Runs one live flow from a server loop to a receiver and reports.
///
/// # Errors
///
/// Propagates socket errors (UDP backend only; the in-memory hub cannot
/// fail), and rejects a config that fails [`LiveConfig::validate`] as
/// [`io::ErrorKind::InvalidInput`].
pub fn run_live(cfg: &LiveConfig) -> io::Result<LiveOutcome> {
    match cfg.backend {
        LiveBackend::Memory => {
            let (hub, clock) = (MemHub::new(), Arc::new(ManualClock::new()));
            let (server, rx) = (hub.endpoint(SERVER_ADDR), hub.endpoint(RECEIVER_ADDR));
            let mut session = Session::wire_up(cfg, clock, server, rx)?;
            session.run(|_, _| Ok(()))?;
            Ok(session.outcome())
        }
        LiveBackend::UdpLoopback => {
            let bind = || -> io::Result<UdpTransport> {
                let sock = UdpTransport::bind("127.0.0.1:0".parse().expect("static addr"))?;
                sock.expand_buffers(SOCKET_BUFFER_BYTES);
                Ok(sock)
            };
            let (server, rx) = (bind()?, bind()?);
            let drops = vec![server.send_drops_handle(), rx.send_drops_handle()];
            let mut session = Session::wire_up(cfg, MonotonicClock::new(), server, rx)?;
            session.udp_drops = drops;
            session.run(|_, _| Ok(()))?;
            Ok(session.outcome())
        }
    }
}

/// Hub address of a memory session's server.
pub(crate) const SERVER_ADDR: SocketAddr = SocketAddr::new(LOOPBACK, 9001);
/// Hub address of a memory session's receiver.
pub(crate) const RECEIVER_ADDR: SocketAddr = SocketAddr::new(LOOPBACK, 9002);
const LOOPBACK: std::net::IpAddr = std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST);

/// A clock the run loop can both read and (for mock time) advance, and
/// hand a copy of to each [`FaultTransport`].
pub(crate) trait RunClock: Clock + Clone {
    /// Blocks (wall clock) or steps (mock clock) until `deadline`.
    ///
    /// Deadlines already in the past return immediately; pacing off
    /// absolute deadlines means sleep overshoot and slow poll iterations
    /// never accumulate into drift — the next wait is simply shorter.
    fn wait_until(&self, deadline: SimTime);
}

impl RunClock for Arc<ManualClock> {
    fn wait_until(&self, deadline: SimTime) {
        if deadline > self.now() {
            self.set(deadline);
        }
    }
}

impl RunClock for MonotonicClock {
    fn wait_until(&self, deadline: SimTime) {
        let remaining = deadline.duration_since(self.now());
        if remaining > SimDuration::ZERO {
            std::thread::sleep(std::time::Duration::from_nanos(remaining.as_nanos()));
        }
    }
}

/// One server loop and the one receiver it streams to, each behind a
/// [`FaultTransport`] — the single place where `pels live` and the wire
/// chaos matrix build and drive endpoints.
#[derive(Debug)]
pub(crate) struct Session<T: Transport, C: RunClock> {
    cfg: LiveConfig,
    clock: C,
    /// The server, with the session's flow in its table while the receiver
    /// is alive.
    pub server: ServeLoop<FaultTransport<T, C>>,
    /// The receiver; `None` while a churn script has it crashed.
    pub receiver: Option<WireReceiver<FaultTransport<T, C>>>,
    rx_faults: WireFaultSpec,
    /// Fault counters of every endpoint the session has opened.
    fault_stats: Vec<FaultCounters>,
    /// Swallowed-send counters of the session's sockets (UDP backend only).
    udp_drops: Vec<Arc<AtomicU64>>,
    /// Counters of the flow's earlier incarnations: an evicted flow that
    /// registers again starts from fresh server state.
    past: FlowView,
    /// The flow as last seen in the server's table.
    last: FlowView,
    /// The server's report at the stop deadline, just before the BYE.
    /// Rate, γ and the router's price are read then, like the simulator's
    /// end-of-run report: afterwards the flow is gone and the router's
    /// arrival estimate decays toward idle.
    stopped: Option<ServeReport>,
}

impl<T: Transport, C: RunClock> Session<T, C> {
    /// Builds both endpoints of a session configured by `cfg` on two open
    /// transports, each wrapped to run its side of `cfg.faults` against
    /// `clock`. The receiver sends everything — HELLO, ACK, NACK, BYE — to
    /// the server's address.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for a config that fails
    /// [`LiveConfig::validate`].
    pub fn wire_up(cfg: &LiveConfig, clock: C, server_ep: T, rx_ep: T) -> io::Result<Self> {
        cfg.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let faults = cfg.faults.clone().unwrap_or_default();
        let server_ep = FaultTransport::new(server_ep, clock.clone(), faults.server);
        let fault_stats = vec![server_ep.stats()];
        let server = ServeLoop::new(
            ServeConfig {
                capacity: cfg.pels_capacity(),
                packet_bytes: PACKET_BYTES,
                trace: cfg.trace.clone(),
                // One flow's worth of queue: the red class holds ~100 ms of
                // the PELS share, not the seconds a 4096-flow server's
                // limits would let a single flow queue — and one admissible
                // flow, so the green floor stays under the simulated
                // router's 200.
                color_limits: [200, 200, 50],
                max_flows: 1,
                telemetry_per_flow: true,
                telemetry: cfg.telemetry.clone(),
                ..ServeConfig::new(server_ep.local_addr())
            },
            server_ep,
            None,
        );
        let mut session = Session {
            cfg: cfg.clone(),
            clock,
            server,
            receiver: None,
            rx_faults: faults.receiver,
            fault_stats,
            udp_drops: Vec::new(),
            past: FlowView::default(),
            last: FlowView::default(),
            stopped: None,
        };
        session.start_receiver(rx_ep);
        Ok(session)
    }

    /// Starts a receiver on `rx_ep` (the first, or a churn replacement).
    pub fn start_receiver(&mut self, rx_ep: T) {
        let rx_ep = FaultTransport::new(rx_ep, self.clock.clone(), self.rx_faults.clone());
        self.fault_stats.push(rx_ep.stats());
        let rx_cfg = WireReceiverConfig {
            flow: FLOW,
            server: self.server.local_addr(),
            packet_bytes: PACKET_BYTES,
        };
        self.receiver = Some(WireReceiver::new(rx_cfg, rx_ep));
    }

    /// The flow's rate and γ as last observed — frozen at the stop
    /// deadline, like the simulator's end-of-run report — with its counters
    /// summed over every incarnation.
    pub fn flow(&self) -> FlowView {
        let mut total = self.last;
        total.frames_sent += self.past.frames_sent;
        total.retransmissions += self.past.retransmissions;
        total.watchdog_trips += self.past.watchdog_trips;
        total
    }

    /// Fault decisions taken so far, summed over every endpoint.
    pub fn fault_totals(&self) -> WireFaultTotals {
        let mut totals = WireFaultTotals::default();
        for stats in &self.fault_stats {
            totals.add(&stats.totals());
        }
        totals
    }

    /// The server's report at the stop deadline.
    ///
    /// # Panics
    ///
    /// Panics before [`Session::run`] has returned.
    pub fn stopped(&self) -> &ServeReport {
        self.stopped.as_ref().expect("the session has run")
    }

    /// Folds the server's current view of the flow into the session's.
    fn observe_flow(&mut self) {
        match self.server.flow(FLOW) {
            Some(view) => {
                if view.frames_sent < self.last.frames_sent {
                    self.past = self.flow();
                }
                self.last = view;
            }
            // An unregistered flow is sent nothing.
            None => self.last.rate_bps = 0.0,
        }
    }

    /// Streams for the configured duration, then has the receiver say BYE
    /// — the end of the stream — and keeps receiving for [`DRAIN`]. Every
    /// [`POLL_INTERVAL`] the receiver is polled, then the server, then
    /// `after_poll` runs (the chaos matrix samples and scripts churn there).
    ///
    /// # Errors
    ///
    /// Propagates hard transport failures and `after_poll`'s errors.
    pub fn run(
        &mut self,
        mut after_poll: impl FnMut(SimTime, &mut Self) -> io::Result<()>,
    ) -> io::Result<()> {
        let telemetry = self.cfg.telemetry.clone();
        let deadline = self.clock.now().saturating_add(self.cfg.duration);
        let drain_deadline = deadline.saturating_add(DRAIN);
        // The poll cadence is an absolute schedule: each iteration waits for
        // `start + k * POLL_INTERVAL`, not "now + POLL_INTERVAL", so sleep
        // overshoot and slow iterations shorten the next wait instead of
        // pushing every later poll back (unbounded drift).
        let mut next_poll = self.clock.now().saturating_add(POLL_INTERVAL);
        let mut next_scrape = self.clock.now().saturating_add(SCRAPE_INTERVAL);
        loop {
            let now = self.clock.now();
            if self.stopped.is_none() && now >= deadline {
                self.stopped = Some(self.server.report(now));
                if let Some(rx) = self.receiver.as_mut() {
                    rx.send_bye()?;
                }
            }
            if now >= drain_deadline {
                break;
            }
            // Receiver first, so its HELLO is in the server's queue before
            // the server's first poll.
            if let Some(rx) = self.receiver.as_mut() {
                rx.poll(now)?;
            }
            self.server.poll(now)?;
            if self.stopped.is_none() {
                self.observe_flow();
            }
            after_poll(now, self)?;
            if telemetry.is_enabled() && now >= next_scrape {
                telemetry.publish(now.as_secs_f64(), self.scrape(now, false));
                next_scrape = next_scrape.saturating_add(SCRAPE_INTERVAL);
            }
            self.clock.wait_until(next_poll);
            next_poll = next_poll.saturating_add(POLL_INTERVAL);
        }
        if telemetry.is_enabled() {
            let now = self.clock.now();
            telemetry.publish(now.as_secs_f64(), self.scrape(now, true));
        }
        Ok(())
    }

    /// Swallowed sends over the session's sockets.
    fn udp_send_drops(&self) -> u64 {
        self.udp_drops.iter().map(|h| h.load(Ordering::Relaxed)).sum()
    }

    /// The server's scrape plus what only a session has: the receiver's
    /// `wire.rx.*` counts and delay distributions (histograms when `full`),
    /// the `wire.fault.*` decisions of every endpoint, and the swallowed
    /// sends of both sockets.
    fn scrape(&self, now: SimTime, full: bool) -> Snapshot {
        let mut snap = self.server.scrape(now);
        snap.counters.insert("wire.udp.send_drops".to_owned(), self.udp_send_drops());
        let f = self.fault_totals();
        for (name, count) in [
            ("wire.fault.dropped", f.dropped),
            ("wire.fault.duplicated", f.duplicated),
            ("wire.fault.reordered", f.reordered),
            ("wire.fault.delayed", f.delayed),
            ("wire.fault.truncated", f.truncated),
            ("wire.fault.corrupted", f.corrupted),
            ("wire.fault.blackout", f.blackout_dropped),
        ] {
            snap.counters.insert(name.to_owned(), count);
        }
        // Absent while a churn script has the receiver crashed; its
        // replacement counts from zero.
        let Some(rx) = &self.receiver else { return snap };
        for (name, count) in [
            ("wire.rx.hellos", rx.hellos_sent()),
            ("wire.rx.nacks", rx.nacks_sent()),
            ("wire.rx.recovered", rx.recovered_on_time),
            ("wire.rx.decode_errors", rx.decode_errors),
        ] {
            snap.counters.insert(name.to_owned(), count);
        }
        // The wire keeps no delay series.
        for (color, stat, hist, _) in rx.delay_stats() {
            snap.set_stat(format!("wire.rx.delay.{color}"), stat, hist.filter(|_| full));
        }
        snap
    }

    /// The simulator-schema report of a finished run.
    ///
    /// # Panics
    ///
    /// Panics before [`Session::run`] has returned, or if the receiver is
    /// gone (only a churn script removes it).
    pub fn outcome(&self) -> LiveOutcome {
        let (flow, server) = (self.flow(), self.stopped());
        let rx = self.receiver.as_ref().expect("only a churn script removes the receiver");
        // The server runs without the simulator's degradation policy (a
        // single live flow has no admission contention to arbitrate): the
        // flow is never starved, skips no base frame and sends no probe.
        let flow_report = FlowReport {
            flow: FLOW.0,
            final_rate_kbps: flow.rate_bps / 1_000.0,
            final_gamma: flow.gamma,
            frames_sent: flow.frames_sent,
            sent_by_color: server.paced_by_class,
            ..rx.flow_report()
        };
        let stats = LiveStats {
            retransmissions: flow.retransmissions,
            nacks_sent: rx.nacks_sent(),
            recovered_packets: rx.recovered_on_time,
            decode_errors: server.decode_errors + rx.decode_errors,
            abandoned_packets: server.abandoned_packets,
            faults: self.fault_totals(),
            udp_send_drops: self.udp_send_drops(),
        };
        let [tx_g, tx_y, tx_r] = server.tx_by_class;
        let [drop_g, drop_y, drop_r] = server.queue_drops_by_class;
        let report = ScenarioReport {
            duration_s: self.cfg.duration.as_secs_f64(),
            green_drops: drop_g,
            flows: vec![flow_report],
            admitted_flows: 1,
            starved_flows: 0,
            // Lemma 6 needs the bottleneck capacity, which a live path does not
            // advertise.
            lemma6_kbps: None,
            bottleneck_tx_by_class: [tx_g, tx_y, tx_r, 0],
            bottleneck_drops_by_class: [drop_g, drop_y, drop_r, 0],
            router_final_loss: server.loss,
            router_final_fgs_loss: server.fgs_loss,
            random_drops: 0,
            tcp_delivered: 0,
        };
        LiveOutcome { report, stats }
    }
}

/// Renders a [`LiveOutcome`] as the CSV layout used under `results/`:
/// one row per flow plus a `router` summary row.
pub fn to_csv(outcome: &LiveOutcome) -> String {
    let counts = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    let mut out = String::from(
        "row,flow,final_rate_kbps,final_gamma,frames_sent,frames_seen,\
         sent_green,sent_yellow,sent_red,recv_green,recv_yellow,recv_red,\
         utility,enh_loss,mean_delay_green_s,mean_delay_yellow_s,mean_delay_red_s\n",
    );
    for f in &outcome.report.flows {
        let [delay_g, delay_y, delay_r] = f.mean_delay_s;
        out.push_str(&format!(
            "flow,{},{:.3},{:.4},{},{},{},{},{:.4},{:.4},{delay_g:.6},{delay_y:.6},{delay_r:.6}\n",
            f.flow,
            f.final_rate_kbps,
            f.final_gamma,
            f.frames_sent,
            f.frames_seen,
            counts(&f.sent_by_color),
            counts(&f.received_by_color),
            f.utility,
            f.enh_loss,
        ));
    }
    let r = &outcome.report;
    out.push_str(&format!(
        "router,,{:.6},{:.6},,,{},{},,,,,\n",
        r.router_final_loss,
        r.router_final_fgs_loss,
        counts(&r.bottleneck_tx_by_class[..3]),
        counts(&r.bottleneck_drops_by_class[..3]),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_mem_cfg() -> LiveConfig {
        LiveConfig {
            duration: SimDuration::from_secs(2),
            backend: LiveBackend::Memory,
            ..LiveConfig::default()
        }
    }

    #[test]
    fn memory_run_is_deterministic() {
        let cfg = short_mem_cfg();
        let a = run_live(&cfg).unwrap();
        let b = run_live(&cfg).unwrap();
        assert_eq!(
            serde_json::to_string(&a.report).unwrap(),
            serde_json::to_string(&b.report).unwrap()
        );
    }

    #[test]
    fn default_fault_spec_is_byte_identical_to_no_faults() {
        // The fault layer is always present; a default (passthrough) spec
        // must not perturb a single byte of the run.
        let bare = run_live(&short_mem_cfg()).unwrap();
        let wrapped =
            run_live(&LiveConfig { faults: Some(LiveFaults::default()), ..short_mem_cfg() })
                .unwrap();
        assert_eq!(
            serde_json::to_string(&bare.report).unwrap(),
            serde_json::to_string(&wrapped.report).unwrap()
        );
        assert_eq!(wrapped.stats.faults.total(), 0);
    }

    #[test]
    fn scripted_faults_perturb_the_run_and_are_counted() {
        use crate::faults::WireFaultPolicy;
        let mut faults = LiveFaults::default();
        faults.server.tx = WireFaultPolicy { drop: 0.2, ..Default::default() };
        let out = run_live(&LiveConfig { faults: Some(faults), ..short_mem_cfg() }).unwrap();
        assert!(out.stats.faults.dropped > 0, "{:?}", out.stats.faults);
        // Dropped data left gaps the receiver NACKed; repairs filled some.
        assert!(out.stats.retransmissions > 0, "{:?}", out.stats);
        assert!(out.stats.recovered_packets > 0, "{:?}", out.stats);
    }

    #[test]
    fn invalid_fault_spec_is_an_input_error() {
        use crate::faults::WireFaultPolicy;
        let mut faults = LiveFaults::default();
        faults.server.rx = WireFaultPolicy { drop: 1.5, ..Default::default() };
        let err = run_live(&LiveConfig { faults: Some(faults), ..short_mem_cfg() }).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        // So is a bottleneck whose PELS share rounds to 0 b/s.
        let err = run_live(&LiveConfig { bottleneck: Rate::ZERO, ..short_mem_cfg() }).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn memory_run_streams_and_delivers_green() {
        let out = run_live(&short_mem_cfg()).unwrap();
        let f = &out.report.flows[0];
        assert_eq!(f.frames_sent, 40, "2 s at 20 fps");
        assert!(f.sent_by_color[0] > 0);
        let green_ratio = f.received_by_color[0] as f64 / f.sent_by_color[0] as f64;
        assert!(green_ratio >= 0.99, "green delivery {green_ratio}");
        // MKC climbed well above the 128 kb/s floor toward C/N + α/β.
        assert!(f.final_rate_kbps > 500.0, "rate {}", f.final_rate_kbps);
        assert!(f.received_by_color[1] > 0, "yellow goodput");
        assert!(f.received_by_color[2] > 0, "red goodput");
        // The server coalesces its departures into containers (more
        // packets than datagrams crossed the hub); the receiver walked
        // every one of them cleanly.
        assert_eq!(out.stats.decode_errors, 0);
    }

    #[test]
    fn memory_run_emits_telemetry_snapshots() {
        let tel = Telemetry::new();
        let mem = pels_telemetry::MemorySink::default();
        tel.attach_sink(Box::new(mem.clone()));
        let cfg = LiveConfig { telemetry: tel.clone(), ..short_mem_cfg() };
        let out = run_live(&cfg).unwrap();
        let snaps = mem.snapshots();
        assert!(snaps.len() >= 2, "periodic scrapes plus the final one, got {}", snaps.len());
        assert!(tel.counter("wire.serve.acks") > 0, "feedback drove MKC");
        // The final scrape agrees with the report's counters.
        let last = &snaps.last().unwrap().1;
        assert_eq!(
            last.counters["wire.serve.tx"],
            out.report.bottleneck_tx_by_class.iter().sum::<u64>(),
        );
        assert_eq!(last.counters["wire.rx.nacks"], out.stats.nacks_sent);
        assert_eq!(last.counters["wire.fault.dropped"], 0);
        assert!(last.stats["wire.rx.delay.green"].hist.is_some(), "the full scrape ends the run");
        // A one-flow session scrapes its flow while it is registered.
        let first = &snaps[0].1;
        assert!(first.gauges["wire.serve.flow.1.rate"].value > 128_000.0, "MKC left its floor");
        assert!(first.gauges.contains_key("wire.serve.flow.1.gamma"));
        assert!(first.stats["wire.rx.delay.green"].hist.is_none(), "periodic: summaries only");
    }

    #[test]
    fn manual_wait_until_steps_forward_and_ignores_past_deadlines() {
        let clock = Arc::new(ManualClock::new());
        clock.wait_until(SimTime::from_secs_f64(1.0));
        assert_eq!(clock.now().as_nanos(), 1_000_000_000);
        // A deadline already behind the clock must be a no-op, not a
        // backwards `set` (which would panic).
        clock.wait_until(SimTime::from_secs_f64(0.5));
        assert_eq!(clock.now().as_nanos(), 1_000_000_000);
    }

    #[test]
    fn monotonic_pacing_drift_is_bounded() {
        // Absolute-deadline pacing: after N intervals the loop sits at
        // `start + N*step` plus at most scheduling jitter — overshoot from
        // one sleep must not accumulate into the next.
        let clock = MonotonicClock::new();
        let step = SimDuration::from_millis(2);
        let rounds = 25u64;
        let mut next = clock.now().saturating_add(step);
        for _ in 0..rounds {
            clock.wait_until(next);
            next = next.saturating_add(step);
        }
        let elapsed = clock.now().as_secs_f64();
        let target = step.as_secs_f64() * rounds as f64;
        assert!(elapsed >= target, "paced loop finished early: {elapsed}s < {target}s");
        // If each sleep's overshoot compounded (relative pacing), 25 rounds
        // of multi-ms scheduling jitter would blow well past this bound.
        assert!(elapsed < target + 0.25, "paced loop drifted: {elapsed}s vs {target}s");
    }

    #[test]
    fn csv_has_flow_and_router_rows() {
        let out = run_live(&LiveConfig {
            duration: SimDuration::from_millis(500),
            backend: LiveBackend::Memory,
            ..LiveConfig::default()
        })
        .unwrap();
        let csv = to_csv(&out);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("row,flow,final_rate_kbps"));
        assert!(lines.next().unwrap().starts_with("flow,1,"));
        assert!(lines.next().unwrap().starts_with("router,,"));
    }
}
