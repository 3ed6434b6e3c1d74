//! `pels loadgen`: a saturating multi-flow client for `pels serve`.
//!
//! One socket multiplexes every flow: HELLOs are staggered over a ramp so
//! registration is not a thundering herd, liveness HELLOs refresh each
//! flow's table entry, received data packets are counted and each is
//! answered with an ACK echoing the router's feedback label and the
//! source's rate — closing the real MKC loop over loopback. At the end
//! every flow says BYE, so a clean run leaves the server's flow table empty
//! (the CI leak gate).
//!
//! Delivered datagrams/s is measured over the *steady window* (after
//! `warmup`), which is the honest throughput number — the benchmark's wire
//! workloads read it: it counts what actually crossed the socket pair, not
//! what the server believes it sent. A flow counts as *sustained* if it
//! received data in the final 500 ms.

use crate::codec::{packets, WireAck, WireBye, WireData, WireHello, ACK_BYTES, DATA_HEADER_BYTES};
use crate::receiver::HELLO_INTERVAL;
use crate::serve::{FLUSH_INTERVAL, IO_BATCH, RX_SLOT_BYTES};
use crate::transport::{Datagram, Outbox, Transport, UdpTransport};
use pels_netsim::clock::{Clock, MonotonicClock};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{SimDuration, SimTime};
use serde::Serialize;
use std::io;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Configuration of one `pels loadgen` run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The `pels serve` socket to register flows at.
    pub server: SocketAddr,
    /// Local socket to bind (port 0 picks an ephemeral port).
    pub listen: SocketAddr,
    /// Concurrent flows to ramp up (flow ids `1..=flows`).
    pub flows: u32,
    /// Total wall-clock run length (after it, BYEs go out).
    pub duration: SimDuration,
    /// Window over which initial HELLOs are staggered.
    pub ramp: SimDuration,
    /// Time excluded from the delivered-rate measurement (ramp + MKC
    /// convergence).
    pub warmup: SimDuration,
}

impl LoadgenConfig {
    /// Defaults: an ephemeral port on the unspecified address of the
    /// server's family, 256 flows, 5 s run with a 1 s ramp and 2 s warmup.
    /// Every flow refreshes its HELLO each [`HELLO_INTERVAL`].
    pub fn new(server: SocketAddr) -> Self {
        let unspecified: IpAddr = match server {
            SocketAddr::V4(_) => Ipv4Addr::UNSPECIFIED.into(),
            SocketAddr::V6(_) => Ipv6Addr::UNSPECIFIED.into(),
        };
        LoadgenConfig {
            server,
            listen: SocketAddr::new(unspecified, 0),
            flows: 256,
            duration: SimDuration::from_secs(5),
            ramp: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(2),
        }
    }

    /// Checks the values that arrive from a command line.
    ///
    /// # Errors
    ///
    /// At least one flow, and a warmup shorter than the run: the delivered
    /// rate is measured after the warmup, and an empty steady window would
    /// report 0 datagrams/s as if it were a measurement.
    pub fn validate(&self) -> Result<(), String> {
        if self.flows == 0 {
            return Err("flows must be at least 1".into());
        }
        if self.warmup >= self.duration {
            return Err(format!(
                "warmup {} s must be shorter than the {} s run",
                self.warmup.as_secs_f64(),
                self.duration.as_secs_f64()
            ));
        }
        Ok(())
    }
}

/// End-of-run summary of one loadgen session.
#[derive(Debug, Clone, Serialize)]
pub struct LoadgenReport {
    /// Flows requested.
    pub flows: u32,
    /// Flows that received data within the final 500 ms.
    pub flows_sustained: u32,
    /// Wall-clock seconds the client ran.
    pub duration_secs: f64,
    /// Data datagrams delivered across the whole run.
    pub data_received: u64,
    /// Payload + header bytes of delivered data datagrams.
    pub bytes_received: u64,
    /// Data datagrams delivered inside the steady window.
    pub steady_data_received: u64,
    /// Delivered datagrams/s over the steady window.
    pub steady_datagrams_per_sec: f64,
    /// HELLOs sent (registrations + refreshes).
    pub hellos_sent: u64,
    /// ACKs sent.
    pub acks_sent: u64,
    /// BYEs sent at teardown.
    pub byes_sent: u64,
    /// Undecodable datagrams received.
    pub decode_errors: u64,
    /// Client-side UDP sends swallowed (`WouldBlock`/refusal).
    pub send_drops: u64,
}

/// Per-flow client bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct ClientFlow {
    registered: bool,
    rx: u64,
    last_rx: Option<SimTime>,
    /// This flow's own next liveness-HELLO deadline. Per-flow deadlines
    /// preserve the ramp's stagger for the life of the run; a single
    /// global refresh tick would collapse every flow's HELLO into one
    /// n-datagram burst that overflows the server's receive buffer.
    next_hello: Option<SimTime>,
}

/// Runs the load generator against a live `pels serve`.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for a config that fails
/// [`LoadgenConfig::validate`]; otherwise propagates socket setup and hard
/// transport failures.
pub fn run_loadgen(cfg: LoadgenConfig) -> io::Result<LoadgenReport> {
    cfg.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let transport = UdpTransport::bind(cfg.listen)?;
    transport.expand_buffers(crate::serve::SOCKET_BUFFER_BYTES);
    let clock = MonotonicClock::new();
    let n = cfg.flows;
    let mut flows = vec![ClientFlow::default(); n as usize];
    let mut hellos_sent = 0u64;
    let mut acks_sent = 0u64;
    let mut decode_errors = 0u64;
    let mut data_received = 0u64;
    let mut bytes_received = 0u64;
    let mut steady_data_received = 0u64;
    let mut registered = 0u32;
    // Due-refresh scans run at interval/8 granularity: coarse enough that
    // the O(flows) sweep is negligible, fine enough that a deadline slips
    // by at most a few milliseconds against the 500 ms eviction timeout.
    let scan_step = SimDuration::from_nanos(HELLO_INTERVAL.as_nanos() / 8);
    let mut next_scan = SimTime::ZERO + scan_step;
    let end = SimTime::ZERO + cfg.duration;
    let steady_from = SimTime::ZERO + cfg.warmup;
    let ramp_step = SimDuration::from_nanos(cfg.ramp.as_nanos() / u64::from(n));
    let mut ring: Vec<Datagram> = (0..IO_BATCH).map(|_| Datagram::slot(RX_SLOT_BYTES)).collect();
    // ACKs/HELLOs accumulate — an ACK storm rides in 24-packet containers —
    // until a full batch of containers (or the deadline below) so each
    // send_batch call amortizes its syscall over a real batch instead of
    // flushing whatever one poll pass produced.
    let mut out = Outbox::default();
    let mut out_due = SimTime::ZERO;

    let mut now = clock.now();
    while now < end {
        let mut work = false;
        // Ramp: each flow's first HELLO at its staggered offset.
        while registered < n {
            let due = SimTime::ZERO + ramp_step.saturating_mul(u64::from(registered));
            if now < due {
                break;
            }
            let flow = FlowId(registered + 1);
            let hello = WireHello { flow, seq: 0 }.encode();
            out.push(hello.len(), cfg.server, |buf| buf.extend_from_slice(&hello));
            flows[registered as usize].registered = true;
            flows[registered as usize].next_hello = Some(now + HELLO_INTERVAL);
            registered += 1;
            hellos_sent += 1;
            work = true;
        }
        // Liveness refresh: each flow on its own deadline (see
        // `ClientFlow::next_hello`), swept at scan granularity.
        if now >= next_scan {
            for (i, f) in flows.iter_mut().enumerate().take(registered as usize) {
                if f.registered && f.next_hello.is_some_and(|t| now >= t) {
                    let flow = FlowId(i as u32 + 1);
                    let hello = WireHello { flow, seq: hellos_sent }.encode();
                    out.push(hello.len(), cfg.server, |buf| buf.extend_from_slice(&hello));
                    f.next_hello = Some(now + HELLO_INTERVAL);
                    hellos_sent += 1;
                    work = true;
                }
            }
            next_scan = now + scan_step;
        }
        // Ingest data, echo ACKs.
        loop {
            for slot in ring.iter_mut() {
                slot.reset(RX_SLOT_BYTES);
            }
            let got = transport.recv_batch(&mut ring)?;
            // Each received datagram may be a container of several wire
            // packets (the server coalesces departures). Anything but a
            // decodable data packet is an error.
            for slot in ring.iter().take(got) {
                for packet in packets(&slot.buf) {
                    let Ok(pkt) = packet.and_then(WireData::decode) else {
                        decode_errors += 1;
                        continue;
                    };
                    data_received += 1;
                    bytes_received += (DATA_HEADER_BYTES + pkt.payload.len()) as u64;
                    if now >= steady_from {
                        steady_data_received += 1;
                    }
                    let idx = pkt.flow.0.wrapping_sub(1) as usize;
                    let Some(f) = flows.get_mut(idx) else { continue };
                    f.rx += 1;
                    f.last_rx = Some(now);
                    let ack = WireAck::echo(&pkt);
                    out.push(ACK_BYTES, cfg.server, |buf| ack.append_to(buf));
                    acks_sent += 1;
                }
            }
            if got > 0 {
                work = true;
            }
            if out.containers() >= IO_BATCH {
                out.flush(&transport)?;
                out_due = now + FLUSH_INTERVAL;
            }
            if got < ring.len() {
                break;
            }
        }
        if out.packets() > 0 && now >= out_due {
            out.flush(&transport)?;
            out_due = now + FLUSH_INTERVAL;
        }
        if !work {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        now = clock.now();
    }
    // Teardown: every flow says BYE so the server's table empties without
    // waiting for idle eviction.
    let mut byes_sent = 0u64;
    for (i, f) in flows.iter().enumerate() {
        if f.registered {
            let bye = WireBye { flow: FlowId(i as u32 + 1) }.encode();
            out.push(bye.len(), cfg.server, |buf| buf.extend_from_slice(&bye));
            byes_sent += 1;
        }
    }
    out.flush(&transport)?;

    let final_now = clock.now();
    let sustain_horizon = SimDuration::from_millis(500);
    let flows_sustained = flows
        .iter()
        .filter(|f| f.last_rx.is_some_and(|t| now.duration_since(t) <= sustain_horizon))
        .count() as u32;
    let steady_secs = (end.duration_since(steady_from)).as_secs_f64().max(1e-9);
    Ok(LoadgenReport {
        flows: n,
        flows_sustained,
        duration_secs: final_now.as_secs_f64(),
        data_received,
        bytes_received,
        steady_data_received,
        steady_datagrams_per_sec: steady_data_received as f64 / steady_secs,
        hellos_sent,
        acks_sent,
        byes_sent,
        decode_errors,
        send_drops: transport.send_drops(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{run_serve_with, ServeConfig};
    use pels_telemetry::{MemorySink, Telemetry};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// The real pair on both socket families: IPv4 takes the
    /// `sendmmsg`/`recvmmsg` path, IPv6 the per-datagram one. The server's
    /// driver scrapes the loop once a second and at exit, and the last
    /// scrape is the report.
    #[test]
    fn serve_and_loadgen_stream_over_ipv4_and_ipv6_loopback() {
        for listen in ["127.0.0.1:0", "[::1]:0"] {
            let listen: SocketAddr = listen.parse().unwrap();
            if std::net::UdpSocket::bind(listen).is_err() {
                println!("skipped {listen}: this host has no such loopback");
                continue;
            }
            let stop = AtomicBool::new(false);
            let (addr_tx, addr_rx) = std::sync::mpsc::channel();
            let (tel, scrapes) = (Telemetry::new(), MemorySink::new());
            tel.attach_sink(Box::new(scrapes.clone()));
            let (srv, lg) = std::thread::scope(|s| {
                let server = s.spawn(|| {
                    let on_ready = |addr| addr_tx.send(addr).unwrap();
                    let cfg = ServeConfig { telemetry: tel.clone(), ..ServeConfig::new(listen) };
                    run_serve_with(cfg, on_ready, || stop.load(Ordering::Relaxed))
                });
                let lg = run_loadgen(LoadgenConfig {
                    flows: 64,
                    duration: SimDuration::from_secs(1),
                    ramp: SimDuration::from_millis(250),
                    warmup: SimDuration::from_millis(500),
                    ..LoadgenConfig::new(addr_rx.recv_timeout(Duration::from_secs(10)).unwrap())
                });
                // Outlast the idle-eviction timeout, so a BYE lost on the way
                // still leaves an empty table.
                std::thread::sleep(Duration::from_millis(800));
                stop.store(true, Ordering::Relaxed);
                (server.join().unwrap().unwrap(), lg.unwrap())
            });
            assert_eq!((lg.flows_sustained, lg.decode_errors), (64, 0), "{listen}");
            assert_eq!((srv.peak_flows, srv.decode_errors, srv.leaked_flows), (64, 0, 0));
            assert_eq!(srv.foreign_control, 0, "{listen}: a flow's own frames were refused");
            let scrapes = scrapes.snapshots();
            assert!(scrapes.len() >= 2, "{listen}: one a second, one at exit: {}", scrapes.len());
            let last = &scrapes.last().unwrap().1.counters;
            assert!(srv.acks > 0 && srv.data_sent > 0, "{listen}: {srv:?}");
            assert_eq!(last["wire.serve.acks"], srv.acks, "{listen}");
            assert_eq!(last["wire.serve.tx"], srv.data_sent, "{listen}");
            assert_eq!(last["wire.udp.send_drops"], srv.send_drops, "{listen}");
            assert!(scrapes[0].1.counters["wire.serve.hellos"] >= 64, "{listen}: mid-run scrape");
        }
    }

    /// No flow, or no steady window to measure in, is refused before the
    /// socket is bound, not reported as a run that delivered nothing.
    #[test]
    fn a_run_with_nothing_to_measure_is_invalid_input() {
        let server = "127.0.0.1:9".parse().unwrap();
        let short = SimDuration::from_millis(200);
        for cfg in [
            LoadgenConfig {
                flows: 0,
                duration: short,
                warmup: SimDuration::ZERO,
                ..LoadgenConfig::new(server)
            },
            LoadgenConfig { duration: short, warmup: short, ..LoadgenConfig::new(server) },
        ] {
            let err = run_loadgen(cfg.clone()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{cfg:?}");
        }
    }
}
