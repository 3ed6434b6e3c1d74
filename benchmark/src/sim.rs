//! The three simulator workloads. The harness builds a scenario through the
//! crates' public constructors, drives `run_until` in fixed simulated-time
//! chunks, timing each from outside, and reads the public reports.

use crate::host::{self, Cpu, Env};
use crate::probes::{self, ControlShape};
use crate::record::{report_digest, RunRecord};
use crate::setup::SetupTimes;
use crate::spec::Workload;
use crate::stats::{lower_decile, median, quantile};
use crate::trace::{SpanId, Tracer};
use pels_core::parallel::ParallelScenario;
use pels_core::receiver::PelsReceiver;
use pels_core::router::AqmRouter;
use pels_core::scenario::{
    default_trace, wideband_chained_config, wideband_scaled_config, ScenarioConfig,
};
use pels_core::source::PelsSource;
use pels_fgs::frame::FrameSpec;
use pels_netsim::shard::ShardedSimulator;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_topo::gen::generate;
use pels_topo::model::{compile, TrafficKind};
use pels_topo::scenario::TopoScenario;
use pels_topo::spec::{GeneratorSpec, TopoSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Target FGS-layer loss of the wideband operating point (paper Fig. 10).
const TARGET_FGS_LOSS: f64 = 0.10;
/// Simulated seconds left out of `wall_per_sim_s`: flows ramp up and MKC
/// converges, so early chunks do less work per simulated second.
const WARM_SIM_S: f64 = 2.0;
/// Sanity oracles of a full-size run (the tight ones live in tier-1).
const MIN_UTILITY: f64 = 0.8;
const MAX_LEMMA6_DEV_PCT: f64 = 8.0;
const MAX_WATERFILL_DEV_PCT: f64 = 30.0;
/// Size and generator seed of the one Waxman graph `sim_waxman` runs on.
const WAXMAN_ROUTERS: usize = 64;
const WAXMAN_GRAPH_SEED: u64 = 1;

/// How one sim workload is sized for a run.
#[derive(Debug, Clone, Copy)]
pub struct SimShape {
    pub flows: usize,
    pub horizon_s: f64,
    pub chunk_s: f64,
    pub workers: usize,
}

/// Sizes `workload` so that its run phase takes about `seconds` on the
/// reference 2-core host. The simulated horizon is a fixed function of
/// `seconds` — never of elapsed time — so simulated statistics repeat
/// exactly for a given seed, and a faster simulator finishes sooner
/// instead of simulating more.
pub fn shape(workload: &Workload, seconds: f64, smoke: bool, traced: bool) -> SimShape {
    // Simulated seconds the reference host gets through per host second.
    let (sim_s_per_host_s, chunk_s, workers) = match workload.name {
        "sim_shared" => (0.45, 0.25, 1),
        "sim_chained" => (1.5, 0.5, host::nproc().min(2)),
        _ => (2.0, 0.5, 1),
    };
    SimShape {
        flows: match (smoke, workload.name) {
            (true, _) => 64,
            (false, "sim_waxman") => 512,
            (false, _) => 1024,
        },
        horizon_s: if smoke { 3.0 } else { (seconds * sim_s_per_host_s).round().max(3.0) },
        // The traced run takes the finer chunks the chunk_ms_* metrics name.
        chunk_s: if traced { 0.1 } else { chunk_s },
        workers,
    }
}

/// What the probes need to know about the workload's shape.
struct ProbeShape {
    color_limits: [usize; 3],
    internet_limit: usize,
    packet_bytes: u32,
    pels_capacity: Rate,
    frame: FrameSpec,
    fps: f64,
    feedback_interval: SimDuration,
}

#[derive(Default)]
struct TopoFacts {
    generate_s: f64,
    compile_s: f64,
    predict_s: f64,
    hosts: usize,
    bottlenecks: usize,
}

/// Everything read from one finished simulation.
struct SimFacts {
    setups: SetupTimes,
    /// `VmHWM` once the run and its report are done, before set-up is
    /// timed again.
    peak_rss_kb: f64,
    driven: Driven,
    report_s: f64,
    aqm_routers: usize,
    tx: [u64; 4],
    drops: [u64; 4],
    final_p: f64,
    recv_pkts: u64,
    frames: u64,
    mean_rate_kbps: f64,
    rate_dev_pct: f64,
    rate_dev_limit_pct: f64,
    utility: f64,
    starved: usize,
    digest: String,
    topo: Option<TopoFacts>,
    probe: ProbeShape,
}

/// One `run_until` step, timed from outside.
struct Chunk {
    wall_s: f64,
    /// Process CPU, every worker thread.
    cpu_s: f64,
    events: u64,
}

/// The run phase: its chunks, and the engine's own counters at its end.
struct Driven {
    chunks: Vec<Chunk>,
    run_s: f64,
    run_cpu: Cpu,
    events: u64,
    peak_queue_depth: usize,
    shards: usize,
    effective_workers: usize,
    barriers: u64,
    cross_events: u64,
}

/// Runs `sim` to the horizon in `chunk_s` steps, one span per step.
fn drive(
    sim: &mut ShardedSimulator,
    shape: &SimShape,
    tracer: &mut Tracer,
    root: SpanId,
) -> Driven {
    let n_chunks = (shape.horizon_s / shape.chunk_s).round() as usize;
    let mut chunks = Vec::with_capacity(n_chunks);
    let cpu0 = host::process_cpu();
    let mut cpu_before = host::process_cpu_s();
    let run = tracer.begin("netsim.run", Some(root));
    let started = Instant::now();
    for i in 1..=n_chunks {
        let events_before = sim.events_processed();
        let start_ns = tracer.now_ns();
        sim.run_until(SimTime::from_secs_f64(i as f64 * shape.chunk_s));
        let end_ns = tracer.now_ns();
        tracer.record("netsim.run_until", start_ns, end_ns, Some(run));
        let cpu_after = host::process_cpu_s();
        chunks.push(Chunk {
            wall_s: (end_ns - start_ns) as f64 / 1e9,
            cpu_s: cpu_after - cpu_before,
            events: sim.events_processed() - events_before,
        });
        cpu_before = cpu_after;
    }
    let run_s = started.elapsed().as_secs_f64();
    tracer.end(run);
    Driven {
        chunks,
        run_s,
        run_cpu: host::process_cpu().since(cpu0),
        events: sim.events_processed(),
        peak_queue_depth: sim.peak_queue_depth(),
        shards: sim.n_shards(),
        effective_workers: sim.effective_workers(),
        barriers: sim.barriers(),
        cross_events: sim.cross_events(),
    }
}

/// Times one batch of builds (a span each) and keeps the last build.
fn repeat_setup<T>(
    tracer: &mut Tracer,
    root: SpanId,
    times: &mut SetupTimes,
    mut build: impl FnMut() -> T,
) -> T {
    let mut built = None;
    times
        .batch(|| {
            drop(built.take());
            let start_ns = tracer.now_ns();
            built = Some(build());
            let end_ns = tracer.now_ns();
            tracer.record("setup", start_ns, end_ns, Some(root));
            Ok((end_ns - start_ns) as f64 / 1e9)
        })
        .expect("the closure never fails");
    built.expect("a batch builds at least once")
}

/// The dumbbell configuration with its inputs drawn from `seed`: each
/// flow's start phase inside one frame interval (the engine itself draws
/// no random numbers in PELS mode).
fn dumbbell_config(workload: &Workload, flows: usize, seed: u64) -> ScenarioConfig {
    let mut cfg = if workload.name == "sim_shared" {
        wideband_scaled_config(flows, TARGET_FGS_LOSS)
    } else {
        wideband_chained_config(flows, TARGET_FGS_LOSS)
    };
    cfg.seed = seed;
    let frame_s = cfg.trace.frame_interval_secs();
    let mut rng = StdRng::seed_from_u64(seed);
    for f in &mut cfg.flows {
        f.start_at = SimDuration::from_secs_f64(rng.gen::<f64>() * frame_s);
    }
    cfg
}

fn run_dumbbell(
    workload: &Workload,
    shape: &SimShape,
    seed: u64,
    mut setups: SetupTimes,
    tracer: &mut Tracer,
    root: SpanId,
) -> SimFacts {
    let cfg = dumbbell_config(workload, shape.flows, seed);
    let build = || {
        let mut sc = ParallelScenario::build(cfg.clone());
        sc.set_workers(shape.workers);
        sc
    };
    let mut sc = repeat_setup(tracer, root, &mut setups, build);
    let driven = drive(&mut sc.sim, shape, tracer, root);
    let (report, report_s) = tracer.span("core.report", Some(root), || sc.report());
    let peak_rss_kb = host::peak_rss_kb();
    drop(repeat_setup(tracer, root, &mut setups, build));
    setups.pause();
    drop(repeat_setup(tracer, root, &mut setups, build));

    let n = report.flows.len().max(1) as f64;
    let mean_rate_kbps = report.flows.iter().map(|f| f.final_rate_kbps).sum::<f64>() / n;
    let colors = |pick: fn(&pels_core::scenario::FlowReport) -> [u64; 3]| -> u64 {
        report.flows.iter().map(|f| pick(f).iter().sum::<u64>()).sum()
    };
    SimFacts {
        setups,
        peak_rss_kb,
        driven,
        report_s,
        aqm_routers: sc.router_ids().len(),
        tx: report.bottleneck_tx_by_class,
        drops: report.bottleneck_drops_by_class,
        final_p: report.router_final_loss,
        recv_pkts: colors(|f| f.received_by_color),
        frames: report.flows.iter().map(|f| f.frames_sent).sum(),
        mean_rate_kbps,
        rate_dev_pct: report
            .lemma6_kbps
            .map_or(f64::NAN, |l6| (mean_rate_kbps - l6).abs() / l6 * 100.0),
        rate_dev_limit_pct: MAX_LEMMA6_DEV_PCT,
        utility: report.flows.iter().map(|f| f.utility).sum::<f64>() / n,
        starved: report.starved_flows,
        digest: report_digest(&serde_json::to_string(&report).unwrap_or_default()),
        topo: None,
        probe: ProbeShape {
            color_limits: cfg.aqm.color_limits,
            internet_limit: cfg.aqm.internet_limit,
            packet_bytes: cfg.packet_bytes,
            pels_capacity: cfg.bottleneck.scale(cfg.aqm.pels_share),
            frame: *cfg.trace.frame(0),
            fps: 1.0 / cfg.trace.frame_interval_secs(),
            feedback_interval: cfg.aqm.feedback_interval,
        },
    }
}

fn run_waxman(
    shape: &SimShape,
    seed: u64,
    mut setups: SetupTimes,
    tracer: &mut Tracer,
    root: SpanId,
) -> SimFacts {
    let mut spec =
        TopoSpec::new(GeneratorSpec::Waxman { routers: WAXMAN_ROUTERS, alpha: None, beta: None });
    spec.flows = Some(shape.flows);
    // One graph for every run: a different graph is a different amount of
    // work (events differ by +-3 %, loss by +-10 % across generator seeds),
    // which would read as noise. The run's seed draws start phases instead.
    spec.seed = Some(WAXMAN_GRAPH_SEED);
    let frame_s = default_trace().frame_interval_secs();

    let build = || {
        let t = Instant::now();
        let mut model = generate(&spec).unwrap_or_else(|e| panic!("generate: {e}"));
        let generate_s = t.elapsed().as_secs_f64();
        let mut rng = StdRng::seed_from_u64(seed);
        for pair in &mut model.pairs {
            if let TrafficKind::Video { start, .. } = &mut pair.kind {
                *start = SimDuration::from_secs_f64(rng.gen::<f64>() * frame_s);
            }
        }
        let mut sc = TopoScenario::try_from_model(model, spec.clone())
            .unwrap_or_else(|e| panic!("compile: {e}"));
        sc.set_workers(shape.workers);
        (sc, generate_s)
    };
    let (mut sc, generate_s) = repeat_setup(tracer, root, &mut setups, build);
    let mut topo = TopoFacts { generate_s, ..TopoFacts::default() };
    // `TopoScenario` keeps its agent ids private; compiling the same model
    // once more (outside set-up time) yields the same ids, and times the
    // compile phase on its own.
    let (compiled, compile_s) = tracer.span("topo.compile", Some(root), || {
        compile(sc.model(), &spec).unwrap_or_else(|e| panic!("compile: {e}"))
    });
    topo.compile_s = compile_s;
    let ids = compiled.ids;
    drop(compiled.agents);

    let driven = drive(&mut sc.sim, shape, tracer, root);
    topo.predict_s = tracer.span("topo.predict", Some(root), || drop(sc.prediction())).1;
    let (report, report_s) = tracer.span("topo.report", Some(root), || sc.report());
    topo.hosts = report.n_hosts;
    topo.bottlenecks = report.bottlenecks.len();
    let peak_rss_kb = host::peak_rss_kb();
    drop(repeat_setup(tracer, root, &mut setups, build));
    setups.pause();
    drop(repeat_setup(tracer, root, &mut setups, build));

    let (mut tx, mut drops, mut final_p) = ([0u64; 4], [0u64; 4], 0.0f64);
    for &id in &ids.aqm_routers {
        let router = sc.sim.agent::<AqmRouter>(id);
        let stats = &router.port(0).stats;
        for c in 0..4 {
            tx[c] += stats.tx_by_class[c];
            drops[c] += stats.drops_by_class[c];
        }
        // Eq. 12: a flow reacts to the largest p on its path.
        final_p = final_p.max(router.estimator().loss());
    }
    let frames = ids.sources.iter().map(|&id| sc.sim.agent::<PelsSource>(id).frames_sent()).sum();
    let recv_pkts = ids
        .receivers
        .iter()
        .map(|&id| sc.sim.agent::<PelsReceiver>(id).received_by_color.iter().sum::<u64>())
        .sum();
    let aqm = spec.aqm();
    let trace = default_trace();
    SimFacts {
        setups,
        peak_rss_kb,
        driven,
        report_s,
        aqm_routers: ids.aqm_routers.len(),
        tx,
        drops,
        final_p,
        recv_pkts,
        frames,
        mean_rate_kbps: sc.mean_rate_kbps(),
        rate_dev_pct: report.max_abs_deviation_pct,
        rate_dev_limit_pct: MAX_WATERFILL_DEV_PCT,
        utility: report.mean_utility,
        starved: sc.starved_flows(),
        digest: report_digest(&serde_json::to_string(&report).unwrap_or_default()),
        probe: ProbeShape {
            color_limits: aqm.color_limits,
            internet_limit: aqm.internet_limit,
            // `pels_topo::model::compile` fixes both for every video flow.
            packet_bytes: 500,
            pels_capacity: sc
                .bottlenecks()
                .first()
                .map_or(Rate::from_mbps(1.0), |b| b.pels_capacity),
            frame: *trace.frame(0),
            fps: 1.0 / trace.frame_interval_secs(),
            feedback_interval: aqm.feedback_interval,
        },
        topo: Some(topo),
    }
}

/// Runs the probes at the workload's measured shape and adds the ledger's
/// estimated shares.
fn add_probes(rec: &mut RunRecord, facts: &SimFacts, horizon_s: f64, flows: usize) {
    let p = &facts.probe;
    let evq = probes::evq_ns_per_op(facts.driven.peak_queue_depth);
    let disc = probes::disc_ns_per_pkt(p.color_limits, p.internet_limit, p.packet_bytes);
    let aqm = probes::aqm_ns_per_pkt(p.pels_capacity, p.packet_bytes);
    rec.set_layer("netsim.evq_ns_per_op", evq);
    rec.set_layer("netsim.disc_ns_per_pkt", disc);
    rec.set_layer("core.aqm_ns_per_pkt", aqm);
    let control = probes::control_costs(
        rec,
        &ControlShape {
            pels_capacity: p.pels_capacity,
            packet_bytes: p.packet_bytes,
            frame: &p.frame,
            fps: p.fps,
            rate_bps: facts.mean_rate_kbps * 1e3,
        },
    );

    // Counts: every event is one schedule+pop; every packet offered to an
    // AQM egress is one discipline round trip, video ones also one Eq. 11
    // arrival (already inside `aqm`); each flow takes at most one MKC and
    // one gamma update per feedback epoch; each AQM router ticks once per
    // epoch; each frame is planned once.
    let epochs = horizon_s / p.feedback_interval.as_secs_f64();
    let offered: u64 = facts.tx.iter().sum::<u64>() + facts.drops.iter().sum::<u64>();
    let video: u64 = facts.tx[..3].iter().sum::<u64>() + facts.drops[..3].iter().sum::<u64>();
    let attributed_ns = facts.driven.events as f64 * evq
        + offered as f64 * disc
        + video as f64 * aqm
        + flows as f64 * epochs * (control.mkc + control.gamma)
        + facts.aqm_routers as f64 * epochs * control.tick
        + facts.frames as f64 * control.plan;
    // Busy time is CPU time: with two workers it is about twice `run_s`.
    let busy_s = facts.driven.run_cpu.total_s().max(1e-9);
    let frac = attributed_ns / 1e9 / busy_s;
    rec.set_layer("netsim.attributed_frac", frac);
    rec.set_layer("netsim.unattributed_frac", 1.0 - frac);
}

/// Runs one sim workload and folds what it measured into a record.
pub fn run(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    traced: bool,
    tracer: &mut Tracer,
) -> RunRecord {
    let shape = shape(workload, seconds, smoke, traced);
    let rss_before_kb = host::peak_rss_kb();
    let root = tracer.begin(workload.name, None);
    let setups = SetupTimes::new(smoke);
    let facts = if workload.name == "sim_waxman" {
        run_waxman(&shape, seed, setups, tracer, root)
    } else {
        run_dumbbell(workload, &shape, seed, setups, tracer, root)
    };
    tracer.end(root);
    let rss_kb_per_flow = (facts.peak_rss_kb - rss_before_kb) / shape.flows as f64;

    // Chunks that end after the warm-up (a third of a short smoke horizon)
    // are the samples. Each is first divided by the events it processed,
    // so chunks that simulate more do not read as slower; the lower
    // decile of those costs then tracks the host's fast state (README,
    // "Steadiness"), and the run's own event density scales it back.
    let warm_s = WARM_SIM_S.min(shape.horizon_s / 3.0);
    let driven = &facts.driven;
    let steady: Vec<&Chunk> = driven
        .chunks
        .iter()
        .enumerate()
        .filter(|&(i, _)| (i + 1) as f64 * shape.chunk_s > warm_s + 1e-9)
        .map(|(_, c)| c)
        .collect();
    let per_event = |cost: fn(&Chunk) -> f64| -> f64 {
        let samples: Vec<f64> = steady.iter().map(|c| cost(c) / c.events.max(1) as f64).collect();
        lower_decile(&samples).unwrap_or(f64::NAN)
    };
    let steady_events: u64 = steady.iter().map(|c| c.events).sum();
    let wall_per_sim_s =
        per_event(|c| c.wall_s) * steady_events as f64 / (steady.len() as f64 * shape.chunk_s);
    let recv = facts.recv_pkts as f64;
    let cpu_us_per_pkt = per_event(|c| c.cpu_s) * driven.events as f64 / recv * 1e6;
    let setup_s = facts.setups.lowest_batch_median();

    let mut rec = RunRecord {
        workload: workload.name,
        env: Env {
            workers_used: driven.effective_workers,
            link: "simulated links, no sockets",
            seed_note: if workload.name == "sim_waxman" {
                "one fixed Waxman graph; the seed draws each video flow's start phase"
            } else {
                "the seed draws each flow's start phase within one frame interval"
            },
            ..Env::new(seed, seconds, smoke, traced)
        },
        attempted: shape.flows as u64,
        failed: facts.starved as u64,
        violations: Vec::new(),
        end_to_end: vec![
            // Delivered video packets per simulated second over the host
            // cost of a simulated second.
            ("pkts_per_s", recv / shape.horizon_s / wall_per_sim_s),
            ("rss_kb_per_flow", rss_kb_per_flow),
            ("setup_s", setup_s),
        ],
        layers: Vec::new(),
        report_digest: Some(facts.digest.clone()),
        notes: vec![
            format!(
                "{} flows, {} simulated s in {} s chunks on {} worker(s); wall_per_sim_s and \
                 harness.cpu_us_per_pkt are lower deciles over {} chunks after {warm_s} simulated s",
                shape.flows,
                shape.horizon_s,
                shape.chunk_s,
                driven.effective_workers,
                steady.len()
            ),
            facts.setups.note(if facts.topo.is_some() {
                "generate the graph, compile it, partition it"
            } else {
                "build the scenario, partition it"
            }),
        ],
    };

    let red_offered = (facts.tx[2] + facts.drops[2]).max(1) as f64;
    for (name, value) in [
        ("harness.cpu_us_per_pkt", cpu_us_per_pkt),
        ("netsim.wall_per_sim_s", wall_per_sim_s),
        ("core.rate_dev_pct", facts.rate_dev_pct),
        ("core.utility", facts.utility),
        ("harness.failed_frac", facts.starved as f64 / shape.flows as f64),
        ("netsim.events", driven.events as f64),
        ("netsim.events_per_s", driven.events as f64 / driven.run_s.max(1e-9)),
        ("netsim.peak_queue_depth", driven.peak_queue_depth as f64),
        ("netsim.shards", driven.shards as f64),
        ("netsim.effective_workers", driven.effective_workers as f64),
        ("netsim.barriers", driven.barriers as f64),
        ("netsim.cross_events", driven.cross_events as f64),
        ("netsim.run_s", driven.run_s),
        ("netsim.report_s", facts.report_s),
        ("core.tx_green", facts.tx[0] as f64),
        ("core.tx_yellow", facts.tx[1] as f64),
        ("core.tx_red", facts.tx[2] as f64),
        ("core.drops_green", facts.drops[0] as f64),
        ("core.drops_yellow", facts.drops[1] as f64),
        ("core.drops_red", facts.drops[2] as f64),
        ("core.final_p", facts.final_p),
        ("core.red_loss", facts.drops[2] as f64 / red_offered),
    ] {
        rec.set_layer(name, value);
    }
    if let Some(topo) = &facts.topo {
        rec.set_layer("topo.generate_s", topo.generate_s);
        rec.set_layer("topo.compile_s", topo.compile_s);
        rec.set_layer("topo.predict_s", topo.predict_s);
        rec.set_layer("topo.hosts", topo.hosts as f64);
        rec.set_layer("topo.bottlenecks", topo.bottlenecks as f64);
    }
    if traced {
        let chunk_ms: Vec<f64> = driven.chunks.iter().map(|c| c.wall_s * 1e3).collect();
        rec.set_layer("netsim.chunk_ms_p50", median(&chunk_ms).unwrap_or(0.0));
        rec.set_layer("netsim.chunk_ms_p95", quantile(&chunk_ms, 0.95).unwrap_or(0.0));
        add_probes(&mut rec, &facts, shape.horizon_s, shape.flows);
        rec.mirror_end_to_end_as_traced();
    }

    // Correctness: the paper's invariant first, then sanity oracles that
    // only a converged full-size run can meet.
    if facts.drops[0] > 0 {
        rec.violations.push(format!("{} green (base-layer) drops", facts.drops[0]));
    }
    if facts.recv_pkts == 0 {
        rec.violations.push("no video packet reached a receiver".into());
    }
    if !smoke {
        if facts.utility < MIN_UTILITY {
            rec.violations.push(format!("mean utility {:.3} < {MIN_UTILITY}", facts.utility));
        }
        // NaN (no Lemma 6 reference) must fail too.
        if facts.rate_dev_pct.is_nan() || facts.rate_dev_pct > facts.rate_dev_limit_pct {
            rec.violations.push(format!(
                "rate deviation {:.2} % > {} %",
                facts.rate_dev_pct, facts.rate_dev_limit_pct
            ));
        }
    }
    rec
}

/// The determinism gate's unit: a smoke-size `sim_chained` digest.
pub fn chained_smoke_digest(seed: u64, workers: usize) -> String {
    let workload = crate::spec::workload("sim_chained").expect("registered workload");
    let mut sc = ParallelScenario::build(dumbbell_config(workload, 64, seed));
    sc.set_workers(workers);
    sc.run_until(SimTime::from_secs_f64(3.0));
    report_digest(&serde_json::to_string(&sc.report()).unwrap_or_default())
}
