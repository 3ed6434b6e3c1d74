//! The two wire workloads: `pels serve` and `pels loadgen` as two threads
//! of this process over real loopback UDP — the host's loopback, not a real
//! link. Open loop: the server paces every flow on its own schedule whether
//! or not the client keeps up.
//!
//! The untraced run calls `run_serve_with` unchanged. The traced run drives
//! `ServeLoop::poll` itself, with the socket wrapped in [`TracedTransport`],
//! so every receive and send is a span under the poll that caused it.

use crate::host::{self, Cpu, Env, SOCKET_BUFFER_BYTES};
use crate::probes::{self, ControlShape};
use crate::record::RunRecord;
use crate::setup::SetupTimes;
use crate::spec::Workload;
use crate::stats::{lower_decile, quantile, upper_decile};
use crate::trace::Tracer;
use pels_netsim::clock::{Clock, MonotonicClock};
use pels_netsim::packet::FlowId;
use pels_netsim::time::{Rate, SimDuration};
use pels_wire::codec::{packet_len, WireData, WireHello};
use pels_wire::serve::ServeLoop;
use pels_wire::{
    run_loadgen, run_serve_with, BatchedUdp, Datagram, LoadgenConfig, LoadgenReport, ServeConfig,
    ServeReport, Transport, UdpTransport,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Sampling period of the steady window.
const WINDOW: Duration = Duration::from_millis(500);
const PACKET_BYTES: u32 = 400;
/// Every `SPAN_SAMPLE`-th working poll keeps its spans; totals are exact.
pub const SPAN_SAMPLE: u32 = 32;
/// One flow in `FRAME_SAMPLE` has its frames' first-to-last send tracked.
const FRAME_SAMPLE: u32 = 32;
/// Largest container the batched path coalesces to (`ServeConfig` default).
const CONTAINER_BYTES: usize = 1472;

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// How one wire workload is sized for a run.
#[derive(Debug, Clone, Copy)]
pub struct WireShape {
    pub flows: u32,
    pub capacity_mbps: f64,
    pub duration_s: f64,
    /// Excluded from the steady window: ramp plus MKC convergence.
    pub warmup_s: f64,
}

pub fn shape(workload: &Workload, seconds: f64, smoke: bool) -> WireShape {
    let saturate = workload.name == "wire_saturate";
    let duration_s = if smoke { 3.0 } else { seconds.max(2.0) };
    WireShape {
        flows: match (smoke, saturate) {
            (true, _) => 256,
            (false, true) => 4096,
            (false, false) => 512,
        },
        // The issue's capacities, under `ServeConfig`'s own 928 kb/s video
        // (1.19 M pkts/s offered by 4096 flows). 2000 Mb/s is 625k pkts/s,
        // which sits where this host's two speeds part: in its fast
        // phases the socket loop could carry 0.9 M and the AQM cap binds,
        // in its slow ones (630-670k) the socket loop does, and
        // `pkts_per_s` reads 633-652k through both. A capacity the host
        // never reaches (8000 Mb/s, tried first) read 820-950k or
        // 630-680k by phase: two levels a third apart, which no bound the
        // contract allows can hold. At 100 Mb/s the AQM share always binds.
        capacity_mbps: if saturate { 2000.0 } else { 100.0 },
        duration_s,
        warmup_s: (duration_s / 4.0).max(1.0),
    }
}

fn serve_config(shape: &WireShape) -> ServeConfig {
    let mut cfg = ServeConfig::new(loopback());
    cfg.capacity = Rate::from_mbps(shape.capacity_mbps);
    cfg.packet_bytes = PACKET_BYTES;
    cfg.max_flows = shape.flows as usize * 2;
    // The stop flag ends the server; the duration is only a hang backstop.
    cfg.duration = SimDuration::from_secs_f64(shape.duration_s + 60.0);
    cfg
}

/// One set-up: bind the server socket, build the serve loop, and admit a
/// HELLO from every flow of the workload.
fn time_setup(cfg: &ServeConfig, flows: u32) -> io::Result<f64> {
    let started = Instant::now();
    let transport = BatchedUdp::bind(cfg.listen)?;
    transport.expand_buffers(SOCKET_BUFFER_BYTES);
    let mut lp = ServeLoop::new(cfg.clone(), transport, None);
    let client = UdpTransport::bind(loopback())?;
    let mut container = Vec::with_capacity(CONTAINER_BYTES);
    for flow in 1..=flows {
        let hello = WireHello { flow: FlowId(flow), seq: 0 }.encode();
        if container.len() + hello.len() > CONTAINER_BYTES {
            client.send_to(&container, lp.local_addr())?;
            container.clear();
        }
        container.extend_from_slice(&hello);
    }
    client.send_to(&container, lp.local_addr())?;
    let clock = MonotonicClock::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while lp.flows() < flows as usize {
        if Instant::now() >= deadline {
            return Err(io::Error::other(format!(
                "only {} of {flows} flows admitted within 5 s",
                lp.flows()
            )));
        }
        lp.poll(clock.now())?;
    }
    Ok(started.elapsed().as_secs_f64())
}

/// What [`TracedTransport`] and the drive loop accumulate. Sums are exact;
/// individual spans are kept for sampled polls only.
#[derive(Debug, Default)]
struct TransportTrace {
    rx_ns: u64,
    tx_ns: u64,
    /// Time the wrapper itself spent decoding batches for frame spans.
    tracing_ns: u64,
    rx_dgrams: u64,
    tx_calls: u64,
    tx_dgrams: u64,
    tx_pkts: u64,
    /// (flow, frame) -> first and last send time, sampled flows only.
    frames: HashMap<(u32, u64), (u64, u64)>,
    /// Transport calls of the poll in progress: (name, start, end).
    calls: Vec<(&'static str, u64, u64)>,
}

/// A [`Transport`] that times every batch call into the shared trace and
/// decodes what it sends, defined here so no file under `crates/` changes.
struct TracedTransport<T: Transport> {
    inner: T,
    origin: Instant,
    trace: Rc<RefCell<TransportTrace>>,
}

impl<T: Transport> TracedTransport<T> {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn send_to(&self, buf: &[u8], to: SocketAddr) -> io::Result<()> {
        self.inner.send_to(buf, to)
    }

    fn try_recv(&self, buf: &mut [u8]) -> io::Result<Option<(usize, SocketAddr)>> {
        self.inner.try_recv(buf)
    }

    fn send_batch(&self, batch: &[Datagram]) -> io::Result<()> {
        let start = self.now_ns();
        let res = self.inner.send_batch(batch);
        let end = self.now_ns();
        let mut t = self.trace.borrow_mut();
        t.tx_ns += end - start;
        t.tx_calls += 1;
        t.tx_dgrams += batch.len() as u64;
        t.calls.push(("wire.transport.tx", start, end));
        for d in batch {
            let mut off = 0;
            while off < d.buf.len() {
                let Ok(len) = packet_len(&d.buf[off..]) else { break };
                let Some(pkt) = d.buf.get(off..off + len) else { break };
                off += len;
                t.tx_pkts += 1;
                if let Ok(data) = WireData::decode(pkt) {
                    if data.flow.0 % FRAME_SAMPLE == 0 {
                        let span =
                            t.frames.entry((data.flow.0, data.tag.frame)).or_insert((start, start));
                        span.1 = start;
                    }
                }
            }
        }
        t.tracing_ns += self.now_ns() - end;
        res
    }

    fn recv_batch(&self, batch: &mut [Datagram]) -> io::Result<usize> {
        let start = self.now_ns();
        let res = self.inner.recv_batch(batch);
        let end = self.now_ns();
        let mut t = self.trace.borrow_mut();
        t.rx_ns += end - start;
        if let Ok(got) = res {
            t.rx_dgrams += got as u64;
        }
        t.calls.push(("wire.transport.rx", start, end));
        res
    }
}

/// What the traced server thread hands back beside the report.
struct ServeTrace {
    tracer: Tracer,
    transport: TransportTrace,
    poll_ns: u64,
    idle_ns: u64,
    cpu: Cpu,
}

/// `pels_wire::serve`'s private `drive` loop, re-stated around a traced
/// transport: poll, sleep 100 us when idle, stop on the flag.
fn traced_serve(
    cfg: ServeConfig,
    on_ready: impl FnOnce(SocketAddr),
    stop: &AtomicBool,
    workload: &'static str,
) -> io::Result<(ServeReport, ServeTrace)> {
    let mut tracer = Tracer::new();
    let root = tracer.begin(workload, None);
    let trace = Rc::new(RefCell::new(TransportTrace::default()));
    let inner = BatchedUdp::bind(cfg.listen)?;
    inner.expand_buffers(SOCKET_BUFFER_BYTES);
    let drops = inner.send_drops_handle();
    // The tracer's origin, so transport spans nest inside their poll.
    let transport = TracedTransport { inner, origin: tracer.origin(), trace: Rc::clone(&trace) };
    let mut lp = ServeLoop::new(cfg, transport, Some(drops));
    let clock = MonotonicClock::new();
    on_ready(lp.local_addr());

    let (mut poll_ns, mut idle_ns, mut working_polls) = (0u64, 0u64, 0u32);
    let mut now = clock.now();
    while !stop.load(Ordering::Relaxed) {
        let start = tracer.now_ns();
        let worked = lp.poll(now)?;
        let end = tracer.now_ns();
        poll_ns += end - start;
        let mut t = trace.borrow_mut();
        if worked {
            working_polls = working_polls.wrapping_add(1);
            if working_polls % SPAN_SAMPLE == 0 {
                let poll = tracer.record("wire.serve.poll", start, end, Some(root));
                for &(name, s, e) in &t.calls {
                    tracer.record(name, s, e, Some(poll));
                }
            }
        }
        t.calls.clear();
        drop(t);
        if !worked {
            let slept = Instant::now();
            std::thread::sleep(Duration::from_micros(100));
            idle_ns += slept.elapsed().as_nanos() as u64;
        }
        now = clock.now();
    }
    tracer.end(root);
    let report = lp.report(now);
    drop(lp);
    let transport = Rc::try_unwrap(trace).map(RefCell::into_inner).unwrap_or_default();
    Ok((report, ServeTrace { tracer, transport, poll_ns, idle_ns, cpu: host::thread_cpu() }))
}

/// One sample of the steady window, taken by the idle main thread.
struct Window {
    secs: f64,
    /// UDP datagrams the host delivered to sockets (data containers to the
    /// client plus the far fewer ACK containers to the server); 0 where
    /// `/proc/net/snmp` is unreadable.
    datagrams: f64,
    /// Process CPU, both threads.
    cpu_s: f64,
}

/// One finished serve+loadgen pair.
struct Pair {
    srv: ServeReport,
    lg: LoadgenReport,
    /// The steady window, cut into [`WINDOW`]-long samples from outside.
    windows: Vec<Window>,
    loadgen_cpu: Cpu,
    serve_trace: Option<ServeTrace>,
    /// The CPUs the serve and the loadgen thread were pinned to, if any.
    pinned: [Option<usize>; 2],
}

fn run_pair(workload: &'static Workload, shape: &WireShape, traced: bool) -> Result<Pair, String> {
    let cfg = serve_config(shape);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_srv = Arc::clone(&stop);
    let (addr_tx, addr_rx) = mpsc::channel();
    let on_ready = move |addr| {
        let _ = addr_tx.send(addr);
    };
    // One CPU each for serve and loadgen (see `host::pin_thread`).
    let server = std::thread::spawn(move || {
        let cpu = host::pin_thread(0);
        let served: io::Result<(ServeReport, Option<ServeTrace>)> = if traced {
            traced_serve(cfg, on_ready, &stop_srv, workload.name).map(|(r, t)| (r, Some(t)))
        } else {
            run_serve_with(cfg, on_ready, move || stop_srv.load(Ordering::Relaxed))
                .map(|r| (r, None))
        };
        (cpu, served)
    });
    // Every early return stops and joins the server first.
    let halt = |server: std::thread::JoinHandle<_>, reason: String| {
        stop.store(true, Ordering::Relaxed);
        let _ = server.join();
        reason
    };
    let Ok(server_addr) = addr_rx.recv_timeout(Duration::from_secs(10)) else {
        return Err(halt(server, "serve thread never bound its socket".into()));
    };

    let mut lg_cfg = LoadgenConfig::new(server_addr);
    lg_cfg.flows = shape.flows;
    lg_cfg.duration = SimDuration::from_secs_f64(shape.duration_s);
    lg_cfg.ramp = SimDuration::from_secs_f64((shape.duration_s / 4.0).min(1.0));
    lg_cfg.warmup = SimDuration::from_secs_f64(shape.warmup_s);
    let loadgen = std::thread::spawn(move || {
        let cpu = host::pin_thread(1);
        let report = run_loadgen(lg_cfg);
        (report, host::thread_cpu(), cpu)
    });
    // This thread idles while the pair runs, so it samples from outside:
    // once the warm-up is over, every WINDOW it reads the host's UDP
    // receive counter and this process's CPU time (both threads).
    std::thread::sleep(Duration::from_secs_f64(shape.warmup_s));
    let mut windows = Vec::new();
    let mut last = (Instant::now(), host::udp_in_datagrams().unwrap_or(0), host::process_cpu_s());
    while !loadgen.is_finished() {
        std::thread::sleep(WINDOW);
        let now = (Instant::now(), host::udp_in_datagrams().unwrap_or(0), host::process_cpu_s());
        windows.push(Window {
            secs: (now.0 - last.0).as_secs_f64(),
            datagrams: now.1.saturating_sub(last.1) as f64,
            cpu_s: now.2 - last.2,
        });
        last = now;
    }
    let joined = loadgen.join();
    let (lg, loadgen_cpu, loadgen_pin) = match joined {
        Ok((Ok(lg), cpu, pin)) => (lg, cpu, pin),
        Ok((Err(e), ..)) => return Err(halt(server, format!("loadgen failed: {e}"))),
        Err(_) => return Err(halt(server, "loadgen thread panicked".into())),
    };
    // Outlast the 500 ms idle-eviction timeout, so a BYE lost under load
    // is still cleaned up before the server counts leaked flows.
    std::thread::sleep(Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    let (serve_pin, served) = server.join().map_err(|_| "serve thread panicked".to_string())?;
    let (srv, serve_trace) = served.map_err(|e| format!("serve failed: {e}"))?;
    Ok(Pair { srv, lg, windows, loadgen_cpu, serve_trace, pinned: [serve_pin, loadgen_pin] })
}

/// Adds the spans' sums, the probes, and the ledger's estimated shares.
fn add_trace(
    rec: &mut RunRecord,
    pair: &Pair,
    st: &ServeTrace,
    shape: &WireShape,
    mean_rate_bps: f64,
) {
    let t = &st.transport;
    let secs = |ns: u64| ns as f64 / 1e9;
    let poll_busy_s = secs(st.poll_ns.saturating_sub(t.tracing_ns));
    let self_s = (poll_busy_s - secs(t.rx_ns) - secs(t.tx_ns)).max(0.0);
    let frame_ms: Vec<f64> =
        t.frames.values().map(|&(first, last)| (last - first) as f64 / 1e6).collect();
    for (name, value) in [
        ("wire.serve.poll_busy_s", poll_busy_s),
        ("wire.transport.rx_s", secs(t.rx_ns)),
        ("wire.transport.tx_s", secs(t.tx_ns)),
        ("wire.serve.self_s", self_s),
        ("wire.serve.idle_s", secs(st.idle_ns)),
        ("wire.transport.dgrams_tx", t.tx_dgrams as f64),
        ("wire.transport.pkts_per_dgram", t.tx_pkts as f64 / t.tx_dgrams.max(1) as f64),
        ("wire.transport.batch_fill", t.tx_dgrams as f64 / t.tx_calls.max(1) as f64),
        ("wire.serve.frame_span_ms_p50", quantile(&frame_ms, 0.50).unwrap_or(0.0)),
        ("wire.serve.frame_span_ms_p99", quantile(&frame_ms, 0.99).unwrap_or(0.0)),
        ("wire.serve.cpu_user_s", st.cpu.user_s),
        ("wire.serve.cpu_sys_s", st.cpu.sys_s),
        ("wire.loadgen.cpu_s", pair.loadgen_cpu.total_s()),
    ] {
        rec.set_layer(name, value);
    }

    let cfg = serve_config(shape);
    let encode = probes::encode_ns_per_pkt(PACKET_BYTES);
    let decode = probes::ack_decode_ns_per_pkt();
    let walk = probes::walk_ns_per_container(CONTAINER_BYTES);
    let lookup = probes::flowtable_lookup_ns(shape.flows);
    rec.set_layer("wire.codec.encode_ns_per_pkt", encode);
    rec.set_layer("wire.codec.decode_ns_per_pkt", decode);
    rec.set_layer("wire.codec.walk_ns_per_container", walk);
    rec.set_layer("wire.flowtable.lookup_ns", lookup);
    let control = probes::control_costs(
        rec,
        &ControlShape {
            pels_capacity: cfg.capacity,
            packet_bytes: PACKET_BYTES,
            frame: cfg.trace.frame(0),
            fps: 1.0 / cfg.trace.frame_interval_secs(),
            rate_bps: mean_rate_bps,
        },
    );

    // Counts: every packet admitted to the router was encoded once and
    // counted by Eq. 11 once; every ACK was decoded once; every received
    // container walked once; ACKs, departures and timer events each look
    // their flow up once; each flow takes at most one MKC and one gamma
    // update per feedback epoch; each frame is planned once. The timer
    // wheel, pacing admission and router drain have no public entry point
    // to probe and land in the unattributed residual.
    let srv = &pair.srv;
    let admitted =
        (srv.tx_by_class.iter().sum::<u64>() + srv.queue_drops_by_class.iter().sum::<u64>()) as f64;
    let epochs = srv.duration_secs / cfg.feedback_interval.as_secs_f64();
    let updates = (f64::from(shape.flows) * epochs).min(srv.acks as f64);
    let attributed_ns = admitted * (encode + control.arrival)
        + srv.acks as f64 * decode
        + t.rx_dgrams as f64 * walk
        + (srv.acks + srv.data_sent + srv.timer_events) as f64 * lookup
        + updates * (control.mkc + control.gamma)
        + epochs * control.tick
        + srv.frames_emitted as f64 * control.plan;
    let frac = attributed_ns / 1e9 / self_s.max(1e-9);
    rec.set_layer("wire.attributed_frac", frac);
    rec.set_layer("wire.unattributed_frac", 1.0 - frac);
}

/// Runs one wire workload and folds what it measured into a record.
pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
) -> Result<(RunRecord, Option<Tracer>), String> {
    let shape = shape(workload, seconds, smoke);
    let rss_before_kb = host::peak_rss_kb();
    let cfg = serve_config(&shape);
    let mut setups = SetupTimes::new(smoke);
    let once = || time_setup(&cfg, shape.flows).map_err(|e| format!("set-up failed: {e}"));
    setups.batch(once)?;
    let mut pair = run_pair(workload, &shape, traced)?;
    let rss_kb_per_flow = (host::peak_rss_kb() - rss_before_kb) / f64::from(shape.flows);
    setups.batch(once)?;
    setups.pause();
    setups.batch(once)?;
    let (srv, lg) = (&pair.srv, &pair.lg);

    // The host counted datagrams per window; the loadgen counted the data
    // packets in all of them. Their ratio turns each window into packets.
    // The upper decile of the window rates, and the lower decile of the
    // window costs, track the host's fast state (README,
    // "Steadiness"). Without the host counter, fall back to the means.
    let steady_pkts = lg.steady_data_received.max(1) as f64;
    let pkts_per_dgram = steady_pkts / pair.windows.iter().map(|w| w.datagrams).sum::<f64>();
    let busy: Vec<&Window> = pair.windows.iter().filter(|w| w.datagrams > 0.0).collect();
    let (pkts_per_s, cpu_us_per_pkt) = if busy.is_empty() {
        let cpu_s: f64 = pair.windows.iter().map(|w| w.cpu_s).sum();
        (lg.steady_datagrams_per_sec, cpu_s * 1e6 / steady_pkts)
    } else {
        let rates: Vec<f64> = busy.iter().map(|w| w.datagrams * pkts_per_dgram / w.secs).collect();
        let costs: Vec<f64> =
            busy.iter().map(|w| w.cpu_s * 1e6 / (w.datagrams * pkts_per_dgram)).collect();
        (upper_decile(&rates).unwrap_or(f64::NAN), lower_decile(&costs).unwrap_or(f64::NAN))
    };
    let failed = u64::from(shape.flows - lg.flows_sustained.min(shape.flows));
    let mut rec = RunRecord {
        workload: workload.name,
        env: Env {
            link: "loopback, not a real link",
            so_rcvbuf_bytes: SOCKET_BUFFER_BYTES,
            seed_note: "a wall-clock-driven run: the seed is recorded but alters nothing",
            ..Env::new(seed, seconds, smoke, traced)
        },
        attempted: u64::from(shape.flows),
        failed,
        violations: Vec::new(),
        end_to_end: vec![
            ("pkts_per_s", pkts_per_s),
            ("rss_kb_per_flow", rss_kb_per_flow),
            ("setup_s", setups.lowest_batch_median()),
        ],
        layers: Vec::new(),
        report_digest: None,
        notes: vec![
            format!(
                "{} flows at {} Mb/s, {PACKET_BYTES} B packets, batched + coalesced, {} s with \
                 {} s warm-up; pkts_per_s is the upper and harness.cpu_us_per_pkt the lower decile of {} \
                 steady windows of {} ms",
                shape.flows,
                shape.capacity_mbps,
                shape.duration_s,
                shape.warmup_s,
                busy.len(),
                WINDOW.as_millis()
            ),
            setups.note("bind, build the serve loop, admit a HELLO from every flow"),
            match pair.pinned {
                [Some(serve), Some(loadgen)] => {
                    format!("serve thread pinned to CPU {serve}, loadgen thread to CPU {loadgen}")
                }
                _ => "threads not pinned: fewer than two CPUs allowed, or no sched_setaffinity"
                    .to_string(),
            },
        ],
    };

    let sent_or_missed = (srv.data_sent + srv.abandoned_packets).max(1) as f64;
    let mean_payload = lg.bytes_received as f64 / lg.data_received.max(1) as f64
        - pels_wire::codec::DATA_HEADER_BYTES as f64;
    for (name, value) in [
        ("harness.cpu_us_per_pkt", cpu_us_per_pkt),
        ("wire.serve.deadline_miss_frac", srv.abandoned_packets as f64 / sent_or_missed),
        ("harness.failed_frac", failed as f64 / f64::from(shape.flows)),
        ("wire.serve.data_sent", srv.data_sent as f64),
        ("wire.serve.frames_emitted", srv.frames_emitted as f64),
        ("wire.serve.abandoned_packets", srv.abandoned_packets as f64),
        ("wire.serve.timer_events", srv.timer_events as f64),
        ("wire.serve.timer_events_per_pkt", srv.timer_events as f64 / srv.data_sent.max(1) as f64),
        ("wire.serve.acks", srv.acks as f64),
        ("wire.serve.hellos", srv.hellos as f64),
        ("wire.serve.queue_drops_green", srv.queue_drops_by_class[0] as f64),
        ("wire.serve.queue_drops_yellow", srv.queue_drops_by_class[1] as f64),
        ("wire.serve.queue_drops_red", srv.queue_drops_by_class[2] as f64),
        ("wire.serve.tx_green", srv.tx_by_class[0] as f64),
        ("wire.serve.tx_yellow", srv.tx_by_class[1] as f64),
        ("wire.serve.tx_red", srv.tx_by_class[2] as f64),
        ("wire.serve.pace_late_p50_us", srv.pacing_jitter_p50_us),
        ("wire.serve.pace_late_p99_us", srv.pacing_jitter_p99_us),
        ("wire.serve.send_drops", srv.send_drops as f64),
        ("wire.serve.decode_errors", srv.decode_errors as f64),
        ("wire.serve.leaked_flows", srv.leaked_flows as f64),
        // Payload only: headers excluded.
        ("wire.loadgen.goodput_mbps", lg.steady_datagrams_per_sec * mean_payload * 8.0 / 1e6),
        ("wire.loadgen.flows_sustained", f64::from(lg.flows_sustained)),
        ("wire.loadgen.acks_sent", lg.acks_sent as f64),
    ] {
        rec.set_layer(name, value);
    }

    for (what, count) in [
        ("leaked flows", srv.leaked_flows as u64),
        ("decode errors", srv.decode_errors + lg.decode_errors),
        ("swallowed sends", srv.send_drops + lg.send_drops),
    ] {
        if count > 0 {
            rec.violations.push(format!("{count} {what}"));
        }
    }
    if lg.steady_data_received == 0 {
        rec.violations.push("no data packet delivered in the steady window".into());
    }

    let serve_trace = pair.serve_trace.take();
    if let Some(st) = &serve_trace {
        // The rate the frame planner works at: delivered payload per flow.
        let mean_rate_bps =
            lg.steady_datagrams_per_sec * mean_payload * 8.0 / f64::from(lg.flows_sustained.max(1));
        add_trace(&mut rec, &pair, st, &shape, mean_rate_bps);
        rec.mirror_end_to_end_as_traced();
    }
    Ok((rec, serve_trace.map(|st| st.tracer)))
}
