//! The benchmark's fixed vocabulary: workloads, metrics, units, directions
//! and bounds. `BENCHMARK.json` at the repo root mirrors the three public
//! tables ([`WORKLOADS`], [`END_TO_END`], [`PER_LAYER`]); the one command
//! fails when the two disagree.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a median may worsen before `--compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base median.
    Rel(f64),
    /// Absolute distance in the metric's own unit.
    Abs(f64),
    /// Whichever of the two allows more: a share of the base median, or an
    /// absolute distance (for metrics whose base can be tiny).
    RelOrAbs(f64, f64),
}

impl Bound {
    /// The allowed worsening in the metric's unit, given the base median.
    pub fn allowance(self, base: f64) -> f64 {
        match self {
            Bound::Rel(share) => share * base.abs(),
            Bound::Abs(d) => d,
            Bound::RelOrAbs(share, d) => (share * base.abs()).max(d),
        }
    }

    pub fn label(self) -> String {
        match self {
            Bound::Rel(share) => format!("{:.0} %", share * 100.0),
            Bound::Abs(d) => format!("{d} abs"),
            Bound::RelOrAbs(share, d) => format!("{:.0} % | {d}", share * 100.0),
        }
    }
}

/// Which stack a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Sim,
    Wire,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub stack: Stack,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sim_shared",
        stack: Stack::Sim,
        why: "1024 flows on one AQM bottleneck (the paper's Fig. 6 shape): deep event queue and \
              queue discipline do the work, the shard executor none",
    },
    Workload {
        name: "sim_chained",
        stack: Stack::Sim,
        why: "1024 independent dumbbells on 2 workers: agents, FGS frame planning and the shard \
              executor dominate, the deep-queue path is bypassed",
    },
    Workload {
        name: "sim_waxman",
        stack: Stack::Sim,
        why: "512 flows over a generated 64-router Waxman graph with TCP herds: multi-hop, Eq. 12 \
              max-override, WRR with Reno cross traffic; topo set-up carries cost",
    },
    Workload {
        name: "wire_saturate",
        stack: Stack::Wire,
        why:
            "serve+loadgen over loopback UDP, 4096 flows at 2000 Mb/s: socket batching, codec and \
              kernel do the work; the 625k pkts/s cap sits where a slow host phase saturates (open \
              loop, not a real link)",
    },
    Workload {
        name: "wire_paced",
        stack: Stack::Wire,
        why: "same pair, 512 flows at 100 Mb/s: the AQM share binds far below I/O saturation, \
              so timer wheel, pacing and MKC do the work and I/O batching idles",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, better: Better::Higher }
}

/// An end-to-end metric: defined, never zero, and steady inside its bound
/// on all five workloads.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub metric: Metric,
    /// Share of the parent's median (the `BENCHMARK.json` `bound`).
    pub bound: f64,
    /// Absolute worsening `--compare` tolerates whatever the share says; 0
    /// for none. Set-up takes 0.3-8 ms here, so a share alone would flag
    /// a scheduler hiccup (the issue's own bound is max(10 %, 0.02 s)).
    pub floor: f64,
}

impl EndToEnd {
    pub fn compare_bound(&self) -> Bound {
        if self.floor > 0.0 {
            Bound::RelOrAbs(self.bound, self.floor)
        } else {
            Bound::Rel(self.bound)
        }
    }
}

/// The untraced run of every workload reports exactly these.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd { metric: higher("pkts_per_s", "1/s"), bound: 0.25, floor: 0.0 },
    EndToEnd { metric: lower("rss_kb_per_flow", "KiB"), bound: 0.25, floor: 0.0 },
    EndToEnd { metric: lower("setup_s", "s"), bound: 0.25, floor: 0.02 },
];

/// A layer metric that still carries a bound in `--compare`: the issue's
/// end-to-end metrics that exist on one stack only, are zero by design, or
/// (`harness.cpu_us_per_pkt`, on `wire_paced`) follow the host's state
/// further than the widest bound allows, and so cannot sit in `END_TO_END`.
/// Read from the untraced run.
#[derive(Debug, Clone, Copy)]
pub struct Gated {
    pub name: &'static str,
    pub bound: Bound,
    pub stack: Option<Stack>,
}

pub const GATED: [Gated; 6] = [
    Gated { name: "harness.cpu_us_per_pkt", bound: Bound::Rel(0.25), stack: None },
    Gated { name: "netsim.wall_per_sim_s", bound: Bound::Rel(0.25), stack: Some(Stack::Sim) },
    Gated { name: "core.rate_dev_pct", bound: Bound::Abs(0.5), stack: Some(Stack::Sim) },
    Gated { name: "core.utility", bound: Bound::Abs(0.005), stack: Some(Stack::Sim) },
    Gated {
        name: "wire.serve.deadline_miss_frac",
        bound: Bound::Abs(0.1),
        stack: Some(Stack::Wire),
    },
    Gated { name: "harness.failed_frac", bound: Bound::Abs(0.0), stack: None },
];

/// Every per-layer metric, in ledger order. A traced run reports all of
/// them; one a workload's stack does not have reads 0.
pub const PER_LAYER: [Metric; 86] = [
    // Demoted end-to-end metrics (see GATED).
    lower("harness.cpu_us_per_pkt", "us"),
    lower("netsim.wall_per_sim_s", "s/s"),
    lower("core.rate_dev_pct", "%"),
    higher("core.utility", "frac"),
    lower("wire.serve.deadline_miss_frac", "frac"),
    lower("harness.failed_frac", "frac"),
    // netsim: counts and public-report fields.
    lower("netsim.events", "count"),
    higher("netsim.events_per_s", "1/s"),
    lower("netsim.peak_queue_depth", "count"),
    higher("netsim.shards", "count"),
    higher("netsim.effective_workers", "count"),
    lower("netsim.barriers", "count"),
    lower("netsim.cross_events", "count"),
    lower("netsim.run_s", "s"),
    lower("netsim.report_s", "s"),
    lower("netsim.chunk_ms_p50", "ms"),
    lower("netsim.chunk_ms_p95", "ms"),
    // core: the bottleneck AQM as the receivers see it.
    higher("core.tx_green", "count"),
    higher("core.tx_yellow", "count"),
    higher("core.tx_red", "count"),
    lower("core.drops_green", "count"),
    lower("core.drops_yellow", "count"),
    lower("core.drops_red", "count"),
    lower("core.final_p", "frac"),
    lower("core.red_loss", "frac"),
    // topo: set-up phases (sim_waxman only).
    lower("topo.generate_s", "s"),
    lower("topo.compile_s", "s"),
    lower("topo.predict_s", "s"),
    lower("topo.hosts", "count"),
    lower("topo.bottlenecks", "count"),
    // wire: ServeReport / LoadgenReport fields.
    higher("wire.serve.data_sent", "count"),
    higher("wire.serve.frames_emitted", "count"),
    lower("wire.serve.abandoned_packets", "count"),
    lower("wire.serve.timer_events", "count"),
    lower("wire.serve.timer_events_per_pkt", "ratio"),
    lower("wire.serve.acks", "count"),
    lower("wire.serve.hellos", "count"),
    lower("wire.serve.queue_drops_green", "count"),
    lower("wire.serve.queue_drops_yellow", "count"),
    lower("wire.serve.queue_drops_red", "count"),
    higher("wire.serve.tx_green", "count"),
    higher("wire.serve.tx_yellow", "count"),
    higher("wire.serve.tx_red", "count"),
    lower("wire.serve.pace_late_p50_us", "us"),
    lower("wire.serve.pace_late_p99_us", "us"),
    lower("wire.serve.send_drops", "count"),
    lower("wire.serve.decode_errors", "count"),
    lower("wire.serve.leaked_flows", "count"),
    higher("wire.loadgen.goodput_mbps", "Mb/s"),
    higher("wire.loadgen.flows_sustained", "count"),
    lower("wire.loadgen.acks_sent", "count"),
    // wire: spans around the transport, measured by the harness.
    lower("wire.serve.poll_busy_s", "s"),
    lower("wire.transport.rx_s", "s"),
    lower("wire.transport.tx_s", "s"),
    lower("wire.serve.self_s", "s"),
    higher("wire.serve.idle_s", "s"),
    lower("wire.transport.dgrams_tx", "count"),
    higher("wire.transport.pkts_per_dgram", "ratio"),
    higher("wire.transport.batch_fill", "ratio"),
    lower("wire.serve.frame_span_ms_p50", "ms"),
    lower("wire.serve.frame_span_ms_p99", "ms"),
    lower("wire.serve.cpu_user_s", "s"),
    lower("wire.serve.cpu_sys_s", "s"),
    lower("wire.loadgen.cpu_s", "s"),
    // Probes: ns per call of a layer's public function at the workload's shape.
    lower("netsim.evq_ns_per_op", "ns"),
    lower("netsim.disc_ns_per_pkt", "ns"),
    lower("core.aqm_ns_per_pkt", "ns"),
    lower("core.mkc_ns_per_update", "ns"),
    lower("core.gamma_ns_per_update", "ns"),
    lower("core.feedback_ns_per_arrival", "ns"),
    lower("core.feedback_ns_per_tick", "ns"),
    lower("fgs.plan_ns_per_frame", "ns"),
    lower("fgs.pkts_per_frame", "count"),
    lower("wire.codec.encode_ns_per_pkt", "ns"),
    lower("wire.codec.decode_ns_per_pkt", "ns"),
    lower("wire.codec.walk_ns_per_container", "ns"),
    lower("wire.flowtable.lookup_ns", "ns"),
    lower("telemetry.counter_ns_enabled", "ns"),
    lower("telemetry.counter_ns_disabled", "ns"),
    // Estimated shares: sum(count x ns/op) over the stack's busy time.
    higher("netsim.attributed_frac", "frac"),
    lower("netsim.unattributed_frac", "frac"),
    higher("wire.attributed_frac", "frac"),
    lower("wire.unattributed_frac", "frac"),
    // The end-to-end metrics as the traced run saw them.
    higher("traced.pkts_per_s", "1/s"),
    lower("traced.rss_kb_per_flow", "KiB"),
    lower("traced.setup_s", "s"),
];

pub fn per_layer(name: &str) -> Option<&'static Metric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The per-layer name under which a traced run repeats end-to-end metric
/// `name` (`traced.<name>`), so tracing overhead can be read off two runs.
pub fn traced_name(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix("traced.") == Some(name))
        .expect("every end-to-end metric has a traced.* twin")
}
