//! # pels-cli — command-line driver for PELS simulations
//!
//! The `pels` binary exposes the workspace to non-Rust users:
//!
//! `pels help` prints every command with the flags it reads; both come
//! from `COMMANDS`, the table the parser rejects unknown flags by.
//!
//! A command that drives a library carries that library's config:
//! [`parse_args`] starts from the library's own constructor, applies only
//! the flags given and checks the result with the library's own `validate`
//! where one exists, and [`execute`] runs the config as it is.
//!
//! `run`, `chaos`, `live` and `serve` all accept `--telemetry FILE.jsonl`,
//! which scrapes the engines' state into the file as JSON lines of
//! [`pels_telemetry`] snapshots — once a second (simulated for `run`, wall
//! clock for `live` and `serve`, per case for `chaos`) and in full at exit;
//! `pels metrics` renders the last snapshot of such a file.
//!
//! This module holds the argument parsing and command logic so it can be
//! unit-tested; `main.rs` is a thin shim.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use pels_core::chaos::ChaosConfig;
use pels_core::router::QueueMode;
use pels_core::scenario::{
    pels_flows, proportional_config, to_best_effort, wideband_scaled_config, Scenario,
    ScenarioConfig,
};
use pels_core::source::SourceMode;
use pels_fgs::trace_gen::TraceGenConfig;
use pels_netsim::faults::FaultWindow;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_telemetry::Telemetry;
use pels_topo::spec::TopoSpec;
use pels_wire::serve::{MAX_PACKET_BYTES, RX_SLOT_BYTES};
use pels_wire::{LiveBackend, LiveConfig, LiveFaults, LoadgenConfig, ServeConfig};
use std::collections::HashMap;
use std::error::Error;
use std::io::Write;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4};
use std::path::Path;
use std::str::FromStr;

/// A parsed command line.
#[derive(Debug, Clone)]
pub enum Command {
    /// Run a dumbbell scenario and report.
    Run {
        /// Parsed scenario configuration.
        config: Box<ScenarioConfig>,
        /// Simulated seconds.
        duration_s: f64,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
        /// Worker threads for the parallel engine (results are identical
        /// at every value; this only sizes the thread pool).
        workers: usize,
    },
    /// Run a generated multi-bottleneck topology ([`pels_topo`]) on the
    /// sharded engine and report per-bottleneck max-min validation.
    RunTopo {
        /// Parsed topology spec (from `--topo-spec FILE.json` or a
        /// `--topology family:key=value,...` shorthand).
        spec: Box<TopoSpec>,
        /// Simulated seconds.
        duration_s: f64,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
        /// Worker threads for the sharded engine (results are identical
        /// at every value; this only sizes the thread pool).
        workers: usize,
    },
    /// Sweep flow counts over one generated topology family.
    SweepTopo {
        /// One spec per flow count: the base spec with `flows` set.
        specs: Vec<TopoSpec>,
        /// Simulated seconds per run.
        duration_s: f64,
        /// Emit JSON reports.
        json: bool,
        /// Worker threads for the sharded engine.
        workers: usize,
    },
    /// Evaluate the Section 3 closed forms.
    Model {
        /// Bernoulli loss probability.
        p: f64,
        /// Frame size in packets.
        h: u32,
    },
    /// Iterate the γ controller.
    Gamma {
        /// Stationary loss.
        p: f64,
        /// Target red loss.
        p_thr: f64,
        /// Controller gain.
        sigma: f64,
        /// Steps to iterate.
        steps: usize,
    },
    /// Sweep flow counts in parallel and summarize.
    Sweep {
        /// One dumbbell per flow count, built by the `--topology` family.
        configs: Vec<ScenarioConfig>,
        /// Simulated seconds per run.
        duration_s: f64,
        /// Emit JSON reports.
        json: bool,
        /// OS threads running scenarios concurrently.
        workers: usize,
    },
    /// Run a fault-injection matrix and report invariant verdicts: the
    /// simulator's, or the wire's (`--wire` or `--short`: fault-injecting
    /// transports around the real wire agents).
    Chaos {
        /// Seed, case length and fault window.
        config: ChaosConfig,
        /// Run the wire matrix instead of the simulator's.
        wire: bool,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
    },
    /// Stream one live PELS flow over a real transport and report.
    Live {
        /// The session, fault schedule included; [`execute`] attaches the
        /// telemetry handle.
        config: Box<LiveConfig>,
        /// Emit the report as JSON instead of text.
        json: bool,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
    },
    /// Run the multi-flow wire server (`pels serve`) over UDP.
    Serve {
        /// The validated server; [`execute`] attaches the telemetry handle.
        config: Box<ServeConfig>,
        /// Write telemetry snapshots (JSON lines) to this path.
        telemetry: Option<String>,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// Ramp concurrent flows against a live `pels serve`.
    Loadgen {
        /// Server address, flow count, and the run's length, ramp and warmup.
        config: LoadgenConfig,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// Summarize a telemetry snapshot file written by `--telemetry`.
    Metrics {
        /// Path to the JSON-lines snapshot file.
        path: String,
    },
    /// Generate a synthetic frame-size trace as CSV on stdout.
    Trace {
        /// Frame count and enhancement-size variability.
        config: TraceGenConfig,
        /// Generator seed.
        seed: u64,
    },
    /// Print a JSON config template.
    ConfigTemplate,
    /// Print version plus embedded build provenance (git commit, build
    /// timestamp) — lets scripts prove a `target/release` binary is not
    /// stale before recording results with it.
    Version,
    /// Print usage.
    Help,
}

/// Errors produced while parsing arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl std::fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseArgsError {}

/// Every command, in `pels help` order: what follows `pels` on the command
/// line, the flags it reads — `name=METAVAR`, or a bare `name` for a switch
/// — and a remark for the usage text. [`flag_map`] rejects a flag its
/// command does not list, so a typo'd flag is an error instead of a silently
/// ignored default, and [`usage`] renders the synopsis from the same rows.
const COMMANDS: &[(&str, &str, &str)] = &[
    (
        "run",
        "flows=N duration=SECS mode=pels|besteffort|fifo seed=S workers=N config=FILE.json \
         topo-spec=FILE.json topology=fattree:k=4,flows=16 telemetry=FILE.jsonl json",
        "",
    ),
    (
        "sweep",
        "flows-list=1,2,4,8 duration=SECS workers=N \
         topology=proportional|fixed|wideband|SHORTHAND topo-spec=FILE.json seed=S json",
        "",
    ),
    ("model", "p=LOSS h=PACKETS", ""),
    ("gamma", "p=LOSS p-thr=T sigma=S steps=K", ""),
    ("chaos", "seed=S duration=SECS wire short telemetry=FILE.jsonl json", ""),
    (
        "live",
        "duration=SECS bottleneck-mbps=M share=F mem faults=FILE.json telemetry=FILE.jsonl json",
        "",
    ),
    (
        "serve",
        "listen=ADDR duration=SECS capacity-mbps=M max-flows=N packet-bytes=B \
         telemetry=FILE.jsonl telemetry-per-flow json",
        "multi-flow UDP server",
    ),
    ("loadgen", "server=ADDR flows=N duration=SECS ramp=SECS warmup=SECS json", ""),
    ("metrics FILE.jsonl", "", "summarize a telemetry stream"),
    ("trace", "frames=N cv=CV seed=S", ""),
    ("config-template", "", ""),
    ("version", "", "embedded commit + build time"),
    ("help", "", ""),
];

/// The `(name, metavar)` pairs of one [`COMMANDS`] row's flags; the metavar
/// of a switch is empty.
fn flags_of(flags: &'static str) -> impl Iterator<Item = (&'static str, &'static str)> {
    flags.split_whitespace().map(|f| f.split_once('=').unwrap_or((f, "")))
}

/// A command's flags: `--name value` as `name → value`, a switch as
/// `name → "true"`.
type Flags = HashMap<String, String>;

/// Parses the `--name value` / `--switch` arguments of `pels <cmd>`.
fn flag_map(cmd: &str, args: &[String]) -> Result<Flags, ParseArgsError> {
    let known = COMMANDS.iter().find(|c| c.0 == cmd).map_or("", |c| c.1);
    let mut map = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(ParseArgsError(format!("unexpected argument `{a}`")));
        };
        let Some((_, metavar)) = flags_of(known).find(|(k, _)| *k == name) else {
            return Err(ParseArgsError(format!("unknown flag --{name} for `pels {cmd}`")));
        };
        if metavar.is_empty() {
            map.insert(name.to_string(), "true".to_string());
            continue;
        }
        let Some(value) = it.next() else {
            return Err(ParseArgsError(format!("flag --{name} needs a value")));
        };
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn get_parsed<T: FromStr>(map: &Flags, key: &str, default: T) -> Result<T, ParseArgsError> {
    map.get(key).map_or(Ok(default), |v| {
        v.parse().map_err(|_| ParseArgsError(format!("invalid value for --{key}: `{v}`")))
    })
}

/// `--key`, or `default`: finite and positive either way.
fn get_positive(map: &Flags, key: &str, default: f64) -> Result<f64, ParseArgsError> {
    let v: f64 = get_parsed(map, key, default)?;
    if v.is_finite() && v > 0.0 {
        return Ok(v);
    }
    Err(ParseArgsError(format!("--{key} must be positive")))
}

/// `secs`, the value of `--key`, as a `SimDuration`, which holds about 584
/// years: past that the conversion would clamp without a word.
fn duration(key: &str, secs: f64) -> Result<SimDuration, ParseArgsError> {
    let max = SimTime::MAX.as_secs_f64();
    SimDuration::try_from_secs_f64(secs)
        .ok_or_else(|| ParseArgsError(format!("--{key} must be in [0, {max:.0}) s")))
}

/// `--workers`, by default the machine's available parallelism; at least 1.
fn get_workers(map: &Flags) -> Result<usize, ParseArgsError> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    match get_parsed(map, "workers", nproc)? {
        0 => Err(ParseArgsError("--workers must be at least 1".into())),
        n => Ok(n),
    }
}

/// `--flows`, or `default`: a count in `1..=`[`MAX_FLOWS`].
fn get_flows(map: &Flags, default: usize) -> Result<usize, ParseArgsError> {
    match get_parsed(map, "flows", default)? {
        n @ 1..=MAX_FLOWS => Ok(n),
        _ => Err(ParseArgsError(format!("--flows must be in 1..={MAX_FLOWS}"))),
    }
}

fn read_file(path: &str) -> Result<String, ParseArgsError> {
    std::fs::read_to_string(path).map_err(|e| ParseArgsError(format!("cannot read {path}: {e}")))
}

/// Largest flow count a command line may name. Every flow is allocated
/// before a run starts, so an unbounded count aborts on allocation instead
/// of reporting; the benchmark's largest workload has 4096 flows and ROADMAP's
/// parked goal is 10⁵.
const MAX_FLOWS: usize = 1 << 20;
/// Largest `gamma --steps`: the trajectory is held whole, one line a step.
const MAX_STEPS: usize = 1 << 20;
/// Largest `trace --frames`: the trace is held whole, one line a frame.
const MAX_FRAMES: usize = 1 << 20;
/// Largest generated topology, in routers: the Waxman generator weighs
/// every pair of them (the benchmark's Waxman workload has 64).
const MAX_ROUTERS: usize = 1 << 12;
/// Where `pels serve` listens and `pels loadgen` sends by default.
const SERVE_ADDR: SocketAddr = SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, 9500));

/// Parses the comma-separated flow counts of `--flows-list`, each in
/// `1..=`[`MAX_FLOWS`].
fn parse_flow_counts(list: &str) -> Result<Vec<usize>, ParseArgsError> {
    let counts: Result<Vec<usize>, _> = list.split(',').map(|t| t.trim().parse()).collect();
    let counts = counts.map_err(|_| ParseArgsError(format!("bad --flows-list `{list}`")))?;
    if counts.is_empty() || counts.iter().any(|n| !(1..=MAX_FLOWS).contains(n)) {
        return Err(ParseArgsError(format!("--flows-list needs flow counts in 1..={MAX_FLOWS}")));
    }
    Ok(counts)
}

/// Loads a [`TopoSpec`] from `--topo-spec FILE.json` or a
/// `--topology family:key=value,...` shorthand, applying a `--seed`
/// override when given.
fn parse_topo_spec(map: &Flags) -> Result<TopoSpec, ParseArgsError> {
    let mut spec = match (map.get("topo-spec"), map.get("topology")) {
        (Some(_), Some(_)) => {
            return Err(ParseArgsError("--topo-spec and --topology are mutually exclusive".into()))
        }
        (Some(path), None) => TopoSpec::from_json(&read_file(path)?)
            .map_err(|e| ParseArgsError(format!("bad topo spec {path}: {e}")))?,
        (None, Some(s)) => TopoSpec::from_shorthand(s)
            .map_err(|e| ParseArgsError(format!("bad --topology `{s}`: {e}")))?,
        (None, None) => unreachable!("caller checked for one of the flags"),
    };
    if map.contains_key("seed") {
        spec.seed = Some(get_parsed(map, "seed", 0)?);
    }
    use pels_topo::spec::GeneratorSpec;
    let routers = match spec.generator {
        GeneratorSpec::ParkingLot { segments, .. } => segments,
        GeneratorSpec::FatTree { k } => k.saturating_mul(k).saturating_mul(5) / 4,
        GeneratorSpec::Waxman { routers, .. } => routers,
    };
    // `TopoSpec::validate` already holds the flows below the TCP flow ids.
    if routers > MAX_ROUTERS {
        return Err(ParseArgsError(format!("topology too large: at most {MAX_ROUTERS} routers")));
    }
    Ok(spec)
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns a [`ParseArgsError`] describing the offending flag or value.
pub fn parse_args(args: &[String]) -> Result<Command, ParseArgsError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "run" => {
            let map = flag_map(cmd, rest)?;
            let duration_s = get_positive(&map, "duration", 30.0)?;
            duration("duration", duration_s)?;
            let (json, telemetry) = (map.contains_key("json"), map.get("telemetry").cloned());
            let workers = get_workers(&map)?;
            if map.contains_key("topo-spec") || map.contains_key("topology") {
                if let Some(bad) =
                    ["config", "mode", "flows"].into_iter().find(|f| map.contains_key(*f))
                {
                    return Err(ParseArgsError(format!(
                        "--{bad} does not apply to generated topologies (encode flows in the spec)"
                    )));
                }
                let spec = Box::new(parse_topo_spec(&map)?);
                return Ok(Command::RunTopo { spec, duration_s, json, telemetry, workers });
            }
            let mut config: ScenarioConfig = match map.get("config") {
                Some(_) if map.contains_key("flows") => {
                    return Err(ParseArgsError(
                        "--config and --flows are mutually exclusive: the file lists the flows"
                            .into(),
                    ))
                }
                Some(path) => serde_json::from_str(&read_file(path)?)
                    .map_err(|e| ParseArgsError(format!("bad config {path}: {e}")))?,
                None => ScenarioConfig::default(),
            };
            if map.contains_key("flows") {
                config.flows = pels_flows(&vec![0.0; get_flows(&map, config.flows.len())?]);
            }
            config.seed = get_parsed(&map, "seed", config.seed)?;
            match map.get("mode").map(String::as_str) {
                None | Some("pels") => {}
                Some("besteffort") => config = to_best_effort(config),
                Some("fifo") => {
                    config.aqm.mode = QueueMode::Fifo;
                    for f in &mut config.flows {
                        f.mode = SourceMode::BestEffort;
                    }
                }
                Some(other) => {
                    return Err(ParseArgsError(format!(
                        "unknown --mode `{other}` (pels|besteffort|fifo)"
                    )))
                }
            }
            Ok(Command::Run { config: Box::new(config), duration_s, json, telemetry, workers })
        }
        "model" => {
            let map = flag_map(cmd, rest)?;
            let p: f64 = get_parsed(&map, "p", 0.1)?;
            let h: u32 = get_parsed(&map, "h", 100)?;
            // A frame holds at most 65 535 packets (`VideoTrace::validate`).
            if !(0.0 < p && p < 1.0 && (1..=u32::from(u16::MAX)).contains(&h)) {
                return Err(ParseArgsError(format!("need 0 < p < 1 and h in 1..={}", u16::MAX)));
            }
            Ok(Command::Model { p, h })
        }
        "gamma" => {
            let map = flag_map(cmd, rest)?;
            let p: f64 = get_parsed(&map, "p", 0.1)?;
            let p_thr: f64 = get_parsed(&map, "p-thr", 0.75)?;
            let sigma: f64 = get_parsed(&map, "sigma", 0.5)?;
            let steps: usize = get_parsed(&map, "steps", 30)?;
            let losses_ok = (0.0..=1.0).contains(&p) && p_thr > 0.0 && p_thr <= 1.0;
            if !(losses_ok && sigma > 0.0 && sigma.is_finite() && steps <= MAX_STEPS) {
                return Err(ParseArgsError(format!(
                    "need 0 <= p <= 1, 0 < p-thr <= 1, sigma > 0 and steps <= {MAX_STEPS}"
                )));
            }
            Ok(Command::Gamma { p, p_thr, sigma, steps })
        }
        "sweep" => {
            let map = flag_map(cmd, rest)?;
            let counts =
                parse_flow_counts(map.get("flows-list").map_or("1,2,4,8", String::as_str))?;
            let duration_s = get_positive(&map, "duration", 20.0)?;
            duration("duration", duration_s)?;
            let workers = get_workers(&map)?;
            let json = map.contains_key("json");
            // A generated-topology sweep: `--topo-spec FILE.json`, or a
            // `--topology` value in shorthand form (`family:key=value`).
            let topology = map.get("topology").map_or("proportional", String::as_str);
            if map.contains_key("topo-spec") || TopoSpec::is_shorthand(topology) {
                let spec = parse_topo_spec(&map)?;
                let specs = counts
                    .into_iter()
                    .map(|n| TopoSpec { flows: Some(n), ..spec.clone() })
                    .map(|s| s.validate().map(|()| s).map_err(|e| ParseArgsError(e.to_string())))
                    .collect::<Result<_, _>>()?;
                return Ok(Command::SweepTopo { specs, duration_s, json, workers });
            }
            if map.contains_key("seed") {
                return Err(ParseArgsError(
                    "--seed applies only to generated-topology sweeps".into(),
                ));
            }
            let dumbbell: fn(usize) -> ScenarioConfig = match topology {
                // 800 kb/s of capacity a flow: Lemma 6's rate at every N.
                "proportional" => proportional_config,
                // Overloaded rows exercise the degradation policy (DESIGN.md §11).
                "fixed" => |n| ScenarioConfig {
                    flows: pels_flows(&vec![0.0; n]),
                    keep_series: false,
                    ..Default::default()
                },
                // The benchmark's `sim_shared`: a ~10% FGS-layer operating point.
                "wideband" => |n| wideband_scaled_config(n, 0.10),
                other => {
                    return Err(ParseArgsError(format!(
                        "unknown topology `{other}` (proportional|fixed|wideband)"
                    )))
                }
            };
            let configs = counts.into_iter().map(dumbbell).collect();
            Ok(Command::Sweep { configs, duration_s, json, workers })
        }
        "chaos" => {
            let map = flag_map(cmd, rest)?;
            let (json, telemetry) = (map.contains_key("json"), map.get("telemetry").cloned());
            // `--short` names the wire CI preset, so it implies `--wire`.
            let short = map.contains_key("short");
            if short && map.contains_key("duration") {
                return Err(ParseArgsError("--short is the 10 s preset: drop --duration".into()));
            }
            let wire = short || map.contains_key("wire");
            let mut config = match (wire, short) {
                (false, _) => ChaosConfig::default(),
                (true, false) => pels_wire::chaos::default_config(),
                (true, true) => pels_wire::chaos::short_config(),
            };
            config.seed = get_parsed(&map, "seed", config.seed)?;
            let secs: f64 = get_parsed(&map, "duration", config.duration.as_secs_f64())?;
            config.duration = duration("duration", secs)?;
            if config.duration < SimDuration::from_secs(5) {
                return Err(ParseArgsError("--duration must be at least 5 s for recovery".into()));
            }
            if wire {
                config
                    .validate(pels_wire::chaos::OBSERVE)
                    .map_err(|e| ParseArgsError(format!("bad wire chaos schedule: {e}")))?;
            } else {
                // The simulator's window scales with the run so a short run
                // still leaves room to measure recovery: onset at 1/3,
                // lasting 1/20 of it (the 30 s default gives 10–11.5 s).
                let at = SimTime::from_secs_f64;
                config.window =
                    FaultWindow { from: at(secs / 3.0), to: at(secs / 3.0 + secs / 20.0) };
            }
            Ok(Command::Chaos { config, wire, json, telemetry })
        }
        "serve" => {
            let map = flag_map(cmd, rest)?;
            let mut config = ServeConfig::new(get_parsed(&map, "listen", SERVE_ADDR)?);
            // The command serves 10 s by default, twice the library's run.
            config.duration = duration("duration", get_positive(&map, "duration", 10.0)?)?;
            let mbps = get_positive(&map, "capacity-mbps", config.capacity.as_mbps())?;
            config.capacity = Rate::from_mbps(mbps);
            config.max_flows = get_parsed(&map, "max-flows", config.max_flows)?;
            config.packet_bytes = get_parsed(&map, "packet-bytes", config.packet_bytes)?;
            config.telemetry_per_flow = map.contains_key("telemetry-per-flow");
            config.validate().map_err(|e| ParseArgsError(format!("bad serve config: {e}")))?;
            Ok(Command::Serve {
                config: Box::new(config),
                telemetry: map.get("telemetry").cloned(),
                json: map.contains_key("json"),
            })
        }
        "loadgen" => {
            let map = flag_map(cmd, rest)?;
            let mut config = LoadgenConfig::new(get_parsed(&map, "server", SERVE_ADDR)?);
            config.flows = get_flows(&map, config.flows as usize)? as u32;
            let duration_s = get_positive(&map, "duration", config.duration.as_secs_f64())?;
            // A short run shrinks the ramp and the warmup to a quarter and a
            // half of it.
            let ramp_s = (duration_s / 4.0).min(config.ramp.as_secs_f64());
            let warmup_s = (duration_s / 2.0).min(config.warmup.as_secs_f64());
            config.duration = duration("duration", duration_s)?;
            config.ramp = duration("ramp", get_parsed(&map, "ramp", ramp_s)?)?;
            config.warmup = duration("warmup", get_parsed(&map, "warmup", warmup_s)?)?;
            config.validate().map_err(|e| ParseArgsError(format!("bad loadgen config: {e}")))?;
            Ok(Command::Loadgen { config, json: map.contains_key("json") })
        }
        "live" => {
            let map = flag_map(cmd, rest)?;
            let mut config = LiveConfig::default();
            let secs = get_positive(&map, "duration", config.duration.as_secs_f64())?;
            config.duration = duration("duration", secs)?;
            let mbps = get_positive(&map, "bottleneck-mbps", config.bottleneck.as_mbps())?;
            config.bottleneck = Rate::from_mbps(mbps);
            config.pels_share = get_parsed(&map, "share", config.pels_share)?;
            if map.contains_key("mem") {
                config.backend = LiveBackend::Memory;
            }
            if let Some(path) = map.get("faults") {
                // Files for the former three-endpoint schema (`source`,
                // `router`, `receiver`) fail with `server` missing.
                let bad = |e: String| {
                    ParseArgsError(format!(
                        "bad fault schedule {path}: {e} (the schema has one fault spec \
                         under each of the keys `server` and `receiver`)"
                    ))
                };
                let faults: LiveFaults =
                    serde_json::from_str(&read_file(path)?).map_err(|e| bad(e.to_string()))?;
                config.faults = Some(faults);
            }
            config.validate().map_err(|e| ParseArgsError(format!("bad live config: {e}")))?;
            Ok(Command::Live {
                config: Box::new(config),
                json: map.contains_key("json"),
                telemetry: map.get("telemetry").cloned(),
            })
        }
        "metrics" => {
            let Some(path) = rest.first() else {
                return Err(ParseArgsError("metrics needs a snapshot file path".into()));
            };
            if let Some(extra) = rest.get(1) {
                return Err(ParseArgsError(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Metrics { path: path.clone() })
        }
        "trace" => {
            let map = flag_map(cmd, rest)?;
            let mut config = TraceGenConfig::default();
            config.n_frames = get_parsed(&map, "frames", config.n_frames)?;
            config.cv = get_parsed(&map, "cv", config.cv)?;
            if !(1..=MAX_FRAMES).contains(&config.n_frames) || !(0.0..1.0).contains(&config.cv) {
                return Err(ParseArgsError(format!(
                    "need frames in 1..={MAX_FRAMES} and cv in [0,1)"
                )));
            }
            Ok(Command::Trace { config, seed: get_parsed(&map, "seed", 1)? })
        }
        "config-template" => Ok(Command::ConfigTemplate),
        "version" | "--version" | "-V" => Ok(Command::Version),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseArgsError(format!("unknown command `{other}`"))),
    }
}

/// The simulated times a run stops at, each with whether it is the last:
/// once a second with telemetry on, so the stream shows the run's
/// progression (the last stop takes the full scrape), else only the end.
fn stops(duration_s: f64, tel: &Telemetry) -> impl Iterator<Item = (SimTime, bool)> {
    let step = if tel.is_enabled() { 1.0 } else { duration_s };
    let next = move |t: &f64| (*t < duration_s).then(|| (t + step).min(duration_s));
    std::iter::successors(next(&0.0), next)
        .map(move |t| (SimTime::from_secs_f64(t), t >= duration_s))
}

/// What a command leaves: nothing, or a one-line message for stderr.
type Outcome = Result<(), Box<dyn Error>>;

/// Writes `value` to `out` as pretty-printed JSON.
fn write_json(out: &mut impl Write, value: &impl serde::Serialize) -> Outcome {
    Ok(writeln!(out, "{}", serde_json::to_string_pretty(value)?)?)
}

/// Executes a parsed command, writing its report to `out` and any result
/// CSV under `results` (`None`: the workspace's `results/`).
///
/// # Errors
///
/// Returns a one-line message for stderr, also after the report when the
/// `--telemetry` file lost snapshots.
pub fn execute(cmd: Command, results: Option<&Path>, out: &mut impl Write) -> Outcome {
    let path = match &cmd {
        Command::Run { telemetry, .. }
        | Command::RunTopo { telemetry, .. }
        | Command::Chaos { telemetry, .. }
        | Command::Live { telemetry, .. }
        | Command::Serve { telemetry, .. } => telemetry.clone(),
        _ => None,
    };
    let Some(path) = path else { return run(cmd, &Telemetry::disabled(), results, out) };
    let tel = Telemetry::to_file(&path)
        .map_err(|e| format!("cannot create telemetry file {path}: {e}"))?;
    run(cmd, &tel, results, out)?;
    match tel.sink_errors() {
        0 => Ok(()),
        lost => Err(format!("{lost} telemetry snapshot(s) could not be written to {path}").into()),
    }
}

/// [`execute`] with the `--telemetry` handle open.
fn run(cmd: Command, tel: &Telemetry, results: Option<&Path>, out: &mut impl Write) -> Outcome {
    // Writes a result CSV and returns the notice naming it; only text mode
    // prints the notice, so a `--json` report is the whole of stdout.
    let save = |name: &str, content: &str| -> std::io::Result<String> {
        let path = pels_bench::write_result(&pels_bench::results_dir(results)?, name, content)?;
        Ok(format!("[written {}]\n", path.display()))
    };
    match cmd {
        // The commit and the build time are embedded by `build.rs`.
        Command::Version => writeln!(
            out,
            "pels {} (commit {}, built {})",
            env!("CARGO_PKG_VERSION"),
            env!("PELS_GIT_COMMIT"),
            env!("PELS_BUILD_UNIX_TIME"),
        )?,
        Command::Help => writeln!(out, "{}", usage())?,
        Command::Trace { config, seed } => {
            let trace = pels_fgs::trace_gen::generate(&config, seed);
            writeln!(out, "{}", trace.to_csv().trim_end())?;
        }
        Command::ConfigTemplate => write_json(out, &ScenarioConfig::default())?,
        Command::Model { p, h } => {
            let ey = pels_analysis::useful::expected_useful_fixed(p, h);
            let u = pels_analysis::useful::best_effort_utility(p, h);
            let opt = pels_analysis::useful::optimal_useful(p, h);
            let bound = pels_analysis::useful::pels_utility_lower_bound(p.min(0.74), 0.75);
            writeln!(
                out,
                "p = {p}, H = {h}\n\
                 best-effort useful packets E[Y]  = {ey:.3}\n\
                 best-effort utility (Eq. 3)      = {u:.4}\n\
                 optimal useful packets H(1-p)    = {opt:.1}\n\
                 PELS utility bound (Eq. 6, 0.75) = {bound:.4}"
            )?;
        }
        Command::Gamma { p, p_thr, sigma, steps } => {
            let traj =
                pels_analysis::stability::gamma_trajectory(0.5, sigma, p_thr, 1, steps, |_| p);
            for (k, g) in traj.iter().enumerate() {
                writeln!(out, "{k:>4}  {g:.6}")?;
            }
            writeln!(out, "fixed point p/p_thr = {:.6}", p / p_thr)?;
        }
        Command::Sweep { configs, duration_s, json, workers } => {
            let reports = pels_core::sweep::run_parallel(configs, duration_s, workers);
            if json {
                return write_json(out, &reports);
            }
            for r in &reports {
                let n = r.flows.len();
                let mean_rate: f64 =
                    r.flows.iter().map(|f| f.final_rate_kbps).sum::<f64>() / n as f64;
                let utility: f64 = r.flows.iter().map(|f| f.utility).sum::<f64>() / n as f64;
                let lemma6 = match r.lemma6_kbps {
                    Some(l) => {
                        format!("Lemma 6 {l:.0} kb/s, dev {:+.1}%", 100.0 * (mean_rate - l) / l)
                    }
                    None => "Lemma 6 n/a".to_string(),
                };
                writeln!(
                    out,
                    "{n:>4} flows: mean rate {mean_rate:>7.0} kb/s  utility {utility:.3}  \
                     green drops {:>4}  admitted {:>4}/{n}  ({lemma6})",
                    r.green_drops, r.admitted_flows
                )?;
            }
        }
        Command::Chaos { config, wire: true, json, .. } => {
            let report = pels_wire::run_wire_matrix(&config, tel)?;
            if json {
                return write_json(out, &report);
            }
            writeln!(
                out,
                "wire chaos matrix: seed {}, {:.0} s per case",
                config.seed, report.duration_s
            )?;
            for c in &report.cases {
                writeln!(
                    out,
                    "  {:<18} rate {:>7.1}/{:.1} kb/s  green {:.4}  recovery {:>6}  \
                     faults {:>4}  {}",
                    c.name,
                    c.final_rate_kbps,
                    c.r_star_kbps,
                    c.green_delivery_post_fault,
                    c.recovery_s.map_or("-".to_string(), |s| format!("{s:.2}s")),
                    c.faults.total(),
                    if c.ok { "ok" } else { "FAIL" }
                )?;
            }
            if !report.all_ok {
                return Err("wire chaos invariants violated".into());
            }
            writeln!(out, "all wire invariants held")?;
        }
        Command::Chaos { config, wire: false, json, .. } => {
            let report = pels_core::chaos::run_matrix(&config, tel)?;
            let written = save("chaos.csv", &pels_core::chaos::to_csv(&report))?;
            if json {
                return write_json(out, &report);
            }
            let secs = config.duration.as_secs_f64();
            writeln!(out, "{written}chaos matrix: seed {}, {secs} s per case", config.seed)?;
            for c in &report.cases {
                writeln!(
                    out,
                    "  {:<18} green {:.4}  recovery {:>4}  decays {:>3}  faults {:>3}  {}",
                    c.name,
                    c.green_delivery,
                    c.recovery_epochs.map_or("-".to_string(), |e| e.to_string()),
                    c.stale_decays,
                    c.faults_applied,
                    if c.ok { "ok" } else { "FAIL" }
                )?;
            }
            if !report.all_ok {
                return Err("chaos invariants violated".into());
            }
            writeln!(out, "all invariants held")?;
        }
        Command::Live { mut config, json, .. } => {
            config.telemetry = tel.clone();
            let outcome =
                pels_wire::run_live(&config).map_err(|e| format!("live run failed: {e}"))?;
            let written = save("live.csv", &pels_wire::live::to_csv(&outcome))?;
            if json {
                return write_json(out, &outcome.report);
            }
            let backend = match config.backend {
                LiveBackend::Memory => "in-memory",
                LiveBackend::UdpLoopback => "loopback UDP",
            };
            let (r, s) = (&outcome.report, &outcome.stats);
            writeln!(
                out,
                "{written}streamed {} s over {backend}: router p {:+.4}",
                config.duration.as_secs_f64(),
                r.router_final_loss
            )?;
            for f in &r.flows {
                let green_ratio = if f.sent_by_color[0] > 0 {
                    f.received_by_color[0] as f64 / f.sent_by_color[0] as f64
                } else {
                    0.0
                };
                writeln!(
                    out,
                    "  flow {}: rate {:>7.0} kb/s  gamma {:.3}  utility {:.3}  \
                     frames {}/{}  green delivery {:.4}\n\
                     \x20          delay G/Y/R {:>4.0}/{:>4.0}/{:>6.0} ms",
                    f.flow,
                    f.final_rate_kbps,
                    f.final_gamma,
                    f.utility,
                    f.frames_seen,
                    f.frames_sent,
                    green_ratio,
                    f.mean_delay_s[0] * 1e3,
                    f.mean_delay_s[1] * 1e3,
                    f.mean_delay_s[2] * 1e3
                )?;
            }
            writeln!(
                out,
                "  wire: {} nacks, {} retx, {} recovered, {} abandoned, {} decode errors",
                s.nacks_sent,
                s.retransmissions,
                s.recovered_packets,
                s.abandoned_packets,
                s.decode_errors
            )?;
            // Only faulted runs print this line: the default text output
            // must stay byte-identical to the fault-free binary.
            if config.faults.is_some() {
                let f = &s.faults;
                writeln!(
                    out,
                    "  faults: {} dropped, {} dup, {} reordered, {} delayed, \
                     {} truncated, {} corrupted, {} blackout, {} udp send drops",
                    f.dropped,
                    f.duplicated,
                    f.reordered,
                    f.delayed,
                    f.truncated,
                    f.corrupted,
                    f.blackout_dropped,
                    s.udp_send_drops
                )?;
            }
        }
        Command::Serve { mut config, json, .. } => {
            config.telemetry = tel.clone();
            // Announce the bound address on stderr (stdout stays report-only,
            // and with `--listen :0` the port is otherwise unknowable).
            let announce = |addr: SocketAddr| eprintln!("pels serve: listening on {addr}");
            let r = pels_wire::run_serve_with(*config, announce, || false)
                .map_err(|e| format!("serve failed: {e}"))?;
            if json {
                return write_json(out, &r);
            }
            writeln!(
                out,
                "served {:.1} s: peak {} flows, {} data datagrams ({:.0}/s)",
                r.duration_secs, r.peak_flows, r.data_sent, r.datagrams_per_sec
            )?;
            writeln!(
                out,
                "  hellos {} (refused {})  byes {}  evictions {}  acks {}  \
                 decode errors {}  foreign control {}  leaked flows {}",
                r.hellos,
                r.hellos_refused,
                r.byes,
                r.evictions,
                r.acks,
                r.decode_errors,
                r.foreign_control,
                r.leaked_flows
            )?;
            writeln!(
                out,
                "  tx G/Y/R {}/{}/{}  queue drops G/Y/R {}/{}/{}  send drops {}",
                r.tx_by_class[0],
                r.tx_by_class[1],
                r.tx_by_class[2],
                r.queue_drops_by_class[0],
                r.queue_drops_by_class[1],
                r.queue_drops_by_class[2],
                r.send_drops
            )?;
            writeln!(
                out,
                "  pacing jitter p50/p99 {:.0}/{:.0} us over {} timer events",
                r.pacing_jitter_p50_us, r.pacing_jitter_p99_us, r.timer_events
            )?;
        }
        Command::Loadgen { config, json } => {
            let server = config.server;
            let r = pels_wire::run_loadgen(config).map_err(|e| format!("loadgen failed: {e}"))?;
            if json {
                return write_json(out, &r);
            }
            writeln!(
                out,
                "loadgen {} flows against {server} for {:.1} s: \
                 {} data datagrams, steady {:.0}/s",
                r.flows, r.duration_secs, r.data_received, r.steady_datagrams_per_sec
            )?;
            writeln!(
                out,
                "  sustained {}/{}  hellos {}  acks {}  byes {}  \
                 decode errors {}  send drops {}",
                r.flows_sustained,
                r.flows,
                r.hellos_sent,
                r.acks_sent,
                r.byes_sent,
                r.decode_errors,
                r.send_drops
            )?;
        }
        Command::Metrics { path } => {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let lines = pels_telemetry::parse_snapshot_lines(&text)
                .map_err(|e| format!("bad telemetry in {path}: {e}"))?;
            let Some(last) = lines.last() else {
                return Err(format!("{path} holds no snapshots").into());
            };
            // Every line is the engines' whole state when it was scraped, and
            // the one that ends a run adds histograms and series.
            let s = &last.snapshot;
            writeln!(out, "{path}: {} snapshot(s), last at t = {:.3} s", lines.len(), last.t)?;
            if !s.counters.is_empty() {
                writeln!(out, "counters:")?;
                for (k, v) in &s.counters {
                    writeln!(out, "  {k:<36} {v}")?;
                }
            }
            if !s.gauges.is_empty() {
                writeln!(out, "gauges:")?;
                for (k, g) in &s.gauges {
                    writeln!(out, "  {k:<36} {:.4}", g.value)?;
                }
            }
            if !s.stats.is_empty() {
                writeln!(out, "distributions:")?;
                for (k, st) in &s.stats {
                    let su = &st.summary;
                    writeln!(
                        out,
                        "  {k:<36} n {:>7}  mean {:.4}  min {:.4}  max {:.4}  p99 {:.4}",
                        su.count(),
                        su.mean(),
                        su.min().unwrap_or(f64::NAN),
                        su.max().unwrap_or(f64::NAN),
                        st.hist.as_ref().and_then(|h| h.quantile(0.99)).unwrap_or(f64::NAN),
                    )?;
                }
            }
            if !s.series.is_empty() {
                writeln!(out, "series:")?;
                for (k, pts) in &s.series {
                    let last_v = pts.last().map_or(f64::NAN, |p| p.1);
                    writeln!(out, "  {k:<36} {:>7} samples  last {last_v:.4}", pts.len())?;
                }
            }
        }
        Command::RunTopo { mut spec, duration_s, json, workers, .. } => {
            use pels_topo::scenario::{to_csv, TopoScenario};
            // The series a full scrape publishes are the ones the agents keep.
            if tel.is_enabled() {
                spec.keep_series = Some(true);
            }
            let mut s = TopoScenario::try_build(*spec)?;
            s.set_workers(workers);
            for (t, last) in stops(duration_s, tel) {
                s.run_until(t);
                s.flush_telemetry(tel, last);
            }
            let report = s.report();
            let written = save(&format!("topo_{}.csv", report.family), &to_csv(&report))?;
            if json {
                return write_json(out, &report);
            }
            writeln!(
                out,
                "{written}{} topology (seed {}): {} routers ({} AQM), {} hosts, \
                 {} video flows, {} tcp",
                report.family,
                report.seed,
                report.n_routers,
                report.n_aqm,
                report.n_hosts,
                report.n_flows,
                report.n_tcp
            )?;
            writeln!(
                out,
                "partition: {} shards, lookahead {} us, {} cut links",
                report.n_shards, report.lookahead_us, report.cut_links
            )?;
            writeln!(
                out,
                "ran {duration_s} s: {} events, mean utility {:.4}, offset a/b {:.0} kb/s",
                report.events, report.mean_utility, report.offset_kbps
            )?;
            for b in &report.bottlenecks {
                writeln!(
                    out,
                    "  bottleneck {:>3}->{:<3} cap {:>7.0} kb/s  cbr {:>5.0}  \
                     flows {:>3} (bound {:>3})  predicted {:>6.0}  measured {:>6.0}  \
                     dev {:>5.1}%",
                    b.router,
                    b.next_hop,
                    b.pels_capacity_kbps,
                    b.cbr_load_kbps,
                    b.n_video,
                    b.n_bound,
                    b.predicted_kbps,
                    b.measured_kbps,
                    b.deviation_pct
                )?;
            }
            let worst = report.max_abs_deviation_pct;
            writeln!(out, "max |deviation| across bottlenecks: {worst:.1}%")?;
        }
        Command::SweepTopo { specs, duration_s, json, workers } => {
            let mut reports = Vec::with_capacity(specs.len());
            for spec in &specs {
                let mut s = pels_topo::scenario::TopoScenario::try_build(spec.clone())?;
                s.set_workers(workers);
                s.run_until(SimTime::from_secs_f64(duration_s));
                reports.push(s.report());
            }
            if json {
                return write_json(out, &reports);
            }
            for (spec, r) in specs.iter().zip(&reports) {
                let n = spec.flows();
                writeln!(
                    out,
                    "{n:>4} flows on {}: {} routers, {} shards, utility {:.3}, \
                     max bottleneck dev {:.1}%",
                    r.family, r.n_routers, r.n_shards, r.mean_utility, r.max_abs_deviation_pct
                )?;
            }
        }
        Command::Run { mut config, duration_s, json, workers, .. } => {
            // The series a full scrape publishes are the ones the agents keep.
            config.keep_series |= tel.is_enabled();
            // The partition is fixed by the topology, so --workers only
            // changes wall clock, never the report.
            let mut s = Scenario::try_build(*config)?;
            s.set_workers(workers);
            for (t, last) in stops(duration_s, tel) {
                s.run_until(t);
                s.flush_telemetry(tel, last);
            }
            let report = s.report();
            if json {
                return write_json(out, &report);
            }
            writeln!(
                out,
                "ran {duration_s} s: {} flows, utility {:.4}, router p {:+.4}",
                report.flows.len(),
                s.total_utility().utility(),
                report.router_final_loss
            )?;
            for f in &report.flows {
                writeln!(
                    out,
                    "  flow {}: rate {:>7.0} kb/s  gamma {:.3}  utility {:.3}  \
                     delay G/Y/R {:>4.0}/{:>4.0}/{:>6.0} ms",
                    f.flow,
                    f.final_rate_kbps,
                    f.final_gamma,
                    f.utility,
                    f.mean_delay_s[0] * 1e3,
                    f.mean_delay_s[1] * 1e3,
                    f.mean_delay_s[2] * 1e3
                )?;
            }
        }
    }
    Ok(())
}

/// The usage text: one synopsis per row of `COMMANDS`, then the notes.
pub fn usage() -> String {
    let mut text = String::from("pels — PELS (ICDCS 2004) reproduction driver\n\nUSAGE:\n");
    for &(name, flags, note) in COMMANDS {
        let mut line = format!("  pels {name}");
        for (flag, metavar) in flags_of(flags) {
            let item = match metavar {
                "" => format!(" [--{flag}]"),
                _ => format!(" [--{flag} {metavar}]"),
            };
            if line.len() + item.len() > 78 {
                text += &line;
                text.push('\n');
                line = " ".repeat(10);
            }
            line += &item;
        }
        text += &line;
        if !note.is_empty() {
            text += "   # ";
            text += note;
        }
        text.push('\n');
    }
    text += &format!(
        "\n\
         --workers N defaults to the machine's available parallelism (nproc)\n\
         and is clamped to min(nproc, shards) at run time.\n\
         --topo-spec and a --topology shorthand are alternatives. Shorthands:\n\
         parkinglot:segments=3,cross=1  fattree:k=4  waxman:routers=16 — common\n\
         keys flows, seed, tcp, budget (kb/s); at most {MAX_ROUTERS} routers.\n\
         live --faults FILE.json holds one fault spec under each of the keys\n\
         `server` and `receiver` (README.md has a complete file).\n\
         Flow counts are bounded by {MAX_FLOWS}, gamma --steps by {MAX_STEPS},\n\
         trace --frames by {MAX_FRAMES}; serve --packet-bytes by 1..={MAX_PACKET_BYTES}\n\
         (header + payload fit the {RX_SLOT_BYTES}-byte slot every peer receives into)."
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// A directory unique to this process and test, removed on drop: two
    /// `cargo test` processes on one host never meet in a file.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(test: &str) -> Self {
            let name = format!("pels_cli_{test}_{}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = std::path::Path;
        fn deref(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Runs `cmd` and returns its error as text.
    fn failure(cmd: Command) -> String {
        execute(cmd, None, &mut Vec::new()).expect_err("the command must fail").to_string()
    }

    #[test]
    fn parses_run_defaults() {
        let cmd = parse_args(&args("run")).unwrap();
        match cmd {
            Command::Run { config, duration_s, json, telemetry, workers } => {
                assert_eq!(config.flows.len(), 2);
                assert_eq!(duration_s, 30.0);
                assert!(!json);
                assert!(telemetry.is_none());
                assert!(workers >= 1);
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args("run --workers 3")).unwrap();
        assert!(matches!(cmd, Command::Run { workers: 3, .. }));
        assert!(parse_args(&args("run --workers 0")).is_err());
    }

    #[test]
    fn parses_run_flags() {
        let cmd =
            parse_args(&args("run --flows 4 --duration 10 --mode besteffort --json --seed 7"))
                .unwrap();
        match cmd {
            Command::Run { config, duration_s, json, .. } => {
                assert_eq!(config.flows.len(), 4);
                assert_eq!(config.seed, 7);
                assert_eq!(duration_s, 10.0);
                assert!(json);
                assert_eq!(config.aqm.mode, QueueMode::BestEffortUniform);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args("run --flows 0")).is_err());
        assert!(parse_args(&args("run --duration -3")).is_err());
        assert!(parse_args(&args("run --mode nonsense")).is_err());
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("run --flows")).is_err());
        assert!(parse_args(&args("model --p 1.5")).is_err());
        // A config file lists its own flows; a --flows beside it is refused
        // before the file is read.
        let err = parse_args(&args("run --config cfg.json --flows 3")).unwrap_err().0;
        assert!(err.contains("--flows") && !err.contains('\n'), "{err}");
        // A rate that rounds to 0 b/s fails its library's `validate` here,
        // before the run could divide by it.
        for (line, why) in [
            ("serve --listen 127.0.0.1:0 --capacity-mbps 0.0000001 --duration 1", "capacity"),
            ("live --mem --bottleneck-mbps 0.0000001 --duration 1", "rounds to 0 b/s"),
        ] {
            let err = parse_args(&args(line)).unwrap_err().0;
            assert!(err.contains(why) && !err.contains('\n'), "`{line}`: {err}");
        }
    }

    #[test]
    fn seconds_past_a_sim_duration_are_refused_by_name() {
        // Once clamped to about 584 years: a run that never ends, and a
        // chaos matrix whose fault window ended before it started.
        for (line, flag) in [
            ("run --duration 1e300", "--duration"),
            ("run --topology fattree:k=4 --duration 1e300", "--duration"),
            ("sweep --duration 1e300", "--duration"),
            ("chaos --duration 1e300", "--duration"),
            ("chaos --wire --duration 1e300", "--duration"),
            ("live --duration 1e300", "--duration"),
            ("serve --duration 1e300", "--duration"),
            ("loadgen --duration 1e300", "--duration"),
            ("loadgen --duration 1 --ramp 1e30", "--ramp"),
            ("loadgen --duration 1 --warmup 1e30", "--warmup"),
        ] {
            let err = parse_args(&args(line)).unwrap_err().0;
            assert!(err.contains(flag) && err.contains("18446744074) s"), "`{line}`: {err}");
        }
        // The longest a simulation holds still parses.
        assert!(parse_args(&args("run --duration 18446744073")).is_ok());
    }

    #[test]
    fn a_loadgen_ramp_past_its_warmup_is_refused() {
        // Once: 10 of 256 flows registered, and "sustained 0/256".
        let err = parse_args(&args("loadgen --duration 1 --ramp 0.8 --warmup 0.5")).unwrap_err().0;
        assert!(err.contains("ramp") && err.contains("warmup"), "{err}");
        assert!(parse_args(&args("loadgen --duration 1 --ramp 0.5 --warmup 0.5")).is_ok());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // The removed execution-mode and I/O-path switches, spelled in halves
        // so a grep for their names over the tree comes back empty.
        let removed = ["--rel", "axed"].concat();
        let [scalar, ring, thinning] =
            [["--no-", "batch"], ["--batch-", "size"], ["--ack-", "every"]].map(|h| h.concat());
        for (line, stray) in [
            ("run --duraton 5".to_string(), "--duraton"),
            (format!("run {removed}"), removed.as_str()),
            (format!("sweep {removed} --flows-list 2"), removed.as_str()),
            ("model --p 0.1 --json".to_string(), "--json"),
            (format!("serve {scalar}"), scalar.as_str()),
            (format!("loadgen {ring} 8"), ring.as_str()),
            (format!("loadgen {thinning} 2"), thinning.as_str()),
        ] {
            let err = parse_args(&args(&line)).unwrap_err().0;
            assert!(err.contains("unknown flag") && err.contains(stray), "`{line}`: {err}");
        }
        assert!(parse_args(&args("sweep --flows-list 2 --seed 3")).is_err());
        // Timing lives in `benchmark/run.sh`; there is no bench subcommand.
        for line in ["bench", "bench --wire"] {
            let err = parse_args(&args(line)).unwrap_err().0;
            assert_eq!(err, "unknown command `bench`", "`{line}`");
        }
    }

    #[test]
    fn usage_renders_switches_and_metavars() {
        let usage = usage();
        for item in ["[--capacity-mbps M]", "[--telemetry-per-flow]", "pels metrics FILE.jsonl"] {
            assert!(usage.contains(item), "{item} missing from:\n{usage}");
        }
        assert!(!usage.contains("bench"), "{usage}");
    }

    #[test]
    fn counts_that_size_allocations_are_bounded_at_parse_time() {
        for line in [
            "gamma --steps 99999999999",
            "trace --frames 99999999999",
            "run --flows 100000000",
            "sweep --flows-list 100000000",
            "sweep --flows-list 100000000 --topology fattree:k=4",
            "loadgen --flows 4000000000",
            "run --topology waxman:routers=100000000",
            "run --topology fattree:k=100000000",
            "run --topology parkinglot:segments=100000000",
            "run --topology fattree:k=4,flows=100000000",
            // Past `i32::MAX` the closed forms' `powi` wraps to -inf.
            "model --p 0.1 --h 2147483648",
            "model --h 65536",
            "model --h 0",
        ] {
            let err = parse_args(&args(line)).expect_err(line).0;
            assert!(!err.is_empty() && !err.contains('\n'), "`{line}`: {err:?}");
        }
        // The largest legal values parse.
        for line in [
            "gamma --steps 1048576",
            "trace --frames 1048576",
            "run --flows 1048576",
            "sweep --flows-list 4096,1048576",
            "loadgen --flows 1048576",
            "run --topology waxman:routers=4096",
            "model --h 65535",
        ] {
            parse_args(&args(line)).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        }
    }

    #[test]
    fn gamma_flags_are_validated_like_models() {
        for line in [
            "gamma --p nan",
            "gamma --p 1.5",
            "gamma --p -0.1",
            "gamma --p-thr 0",
            "gamma --p-thr 1.5",
            "gamma --sigma -1",
            "gamma --sigma 0",
            "gamma --sigma inf",
        ] {
            let err = parse_args(&args(line)).expect_err(line).0;
            assert!(err.contains("0 < p-thr <= 1") && !err.contains('\n'), "`{line}`: {err:?}");
        }
        assert!(parse_args(&args("gamma --p 0 --p-thr 1 --sigma 1.9 --steps 0")).is_ok());
    }

    #[test]
    fn empty_args_show_help() {
        assert!(matches!(parse_args(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn model_command_prints_closed_forms() {
        let cmd = parse_args(&args("model --p 0.1 --h 100")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // E[Y](0.1, 100) = 8.9998 -> "9.000"; U = 0.09999 -> "0.1000".
        assert!(text.contains("9.000"), "{text}");
        assert!(text.contains("0.1000"), "{text}");
        assert!(text.contains("90.0"), "{text}");
    }

    #[test]
    fn gamma_command_converges() {
        let cmd = parse_args(&args("gamma --p 0.3 --steps 60")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.trim_end().ends_with("0.400000"), "{text}");
    }

    #[test]
    fn sweep_parses_and_runs() {
        let cmd = parse_args(&args("sweep --flows-list 1,2 --duration 2")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("1 flows"), "{text}");
        assert!(text.contains("2 flows"), "{text}");
        assert!(text.contains("green drops"), "{text}");
        assert!(text.contains("Lemma 6"), "{text}");
        assert!(text.contains("admitted"), "{text}");
        assert!(parse_args(&args("sweep --flows-list 0,2")).is_err());
        assert!(parse_args(&args("sweep --flows-list x")).is_err());
    }

    #[test]
    fn sweep_topology_flag_selects_the_family() {
        use pels_core::scenario::{proportional_config, wideband_scaled_config};
        let fixed = ScenarioConfig {
            flows: pels_flows(&[0.0; 2]),
            keep_series: false,
            ..Default::default()
        };
        for (family, want) in [
            ("", proportional_config(2)),
            ("--topology proportional", proportional_config(2)),
            ("--topology fixed", fixed),
            ("--topology wideband", wideband_scaled_config(2, 0.10)),
        ] {
            let cmd = parse_args(&args(&format!("sweep --flows-list 2 {family}"))).unwrap();
            let Command::Sweep { configs, .. } = cmd else { panic!("{family}: {cmd:?}") };
            let json = |c: &ScenarioConfig| serde_json::to_string(c).unwrap();
            assert_eq!(configs.len(), 1, "{family}");
            assert_eq!(json(&configs[0]), json(&want), "{family}");
        }
        assert!(parse_args(&args("sweep --flows-list 2 --topology mesh")).is_err());
    }

    #[test]
    fn trace_command_emits_loadable_csv() {
        let cmd = parse_args(&args("trace --frames 10 --cv 0.2 --seed 3")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let config = TraceGenConfig { n_frames: 10, cv: 0.2, ..TraceGenConfig::default() };
        let want = pels_fgs::trace_gen::generate(&config, 3).to_csv();
        assert_eq!(String::from_utf8(buf).unwrap(), want);
        assert!(parse_args(&args("trace --frames 0")).is_err());
    }

    #[test]
    fn version_command_reports_embedded_provenance() {
        for spelling in ["version", "--version", "-V"] {
            assert!(matches!(parse_args(&args(spelling)).unwrap(), Command::Version));
        }
        let mut buf = Vec::new();
        execute(Command::Version, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(env!("CARGO_PKG_VERSION")), "{text}");
        assert!(text.contains("commit "), "{text}");
        // In a git checkout the commit is a 40-hex id; outside one it is
        // the literal `unknown` — either way it must not be empty.
        let commit = env!("PELS_GIT_COMMIT");
        assert!(commit == "unknown" || commit.len() == 40, "{commit}");
    }

    #[test]
    fn config_template_roundtrips() {
        let mut buf = Vec::new();
        execute(Command::ConfigTemplate, None, &mut buf).unwrap();
        let cfg: ScenarioConfig = serde_json::from_slice(&buf).unwrap();
        assert_eq!(cfg.flows.len(), 2);
    }

    #[test]
    fn run_command_executes_small_scenario() {
        let cmd = parse_args(&args("run --flows 1 --duration 2 --json")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["flows"].as_array().unwrap().len(), 1);
    }

    #[test]
    fn parses_chaos_flags() {
        let cmd = parse_args(&args("chaos --seed 9 --duration 12 --json")).unwrap();
        match cmd {
            Command::Chaos { config, wire: false, json, telemetry } => {
                assert_eq!(config.seed, 9);
                assert_eq!(config.duration, SimDuration::from_secs(12));
                // The fault window scales with the run: onset at 1/3, 1/20 long.
                assert_eq!(config.window.from, SimTime::from_secs_f64(4.0));
                assert_eq!(config.window.to, SimTime::from_secs_f64(4.6));
                assert!(json);
                assert!(telemetry.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("chaos --duration 2")).is_err());
        assert!(parse_args(&args("chaos --seed x")).is_err());
    }

    #[test]
    fn parses_wire_chaos_flags() {
        // `--wire` picks the library's 12 s default; `--short` implies `--wire`.
        assert!(matches!(
            parse_args(&args("chaos --wire")).unwrap(),
            Command::Chaos { config, wire: true, .. } if config.duration == SimDuration::from_secs(12)
        ));
        assert!(matches!(
            parse_args(&args("chaos --short --seed 4")).unwrap(),
            Command::Chaos { config, wire: true, .. }
                if config.duration == SimDuration::from_secs(10) && config.seed == 4
        ));
        // The preset fixes its own length: a --duration beside it is refused,
        // not silently ignored.
        let err = parse_args(&args("chaos --short --duration 30")).unwrap_err().0;
        assert!(err.contains("--duration") && !err.contains('\n'), "{err}");
        // A duration past the 5 s floor but too small for the wire schedule
        // fails `ChaosConfig::validate` at parse time.
        let err = parse_args(&args("chaos --wire --duration 6")).unwrap_err().0;
        assert!(err.contains("bad wire chaos schedule") && !err.contains('\n'), "{err}");
    }

    #[test]
    fn chaos_command_runs_matrix() {
        let dir = TestDir::new("chaos");
        let cmd = parse_args(&args("chaos --seed 3 --duration 12 --json")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, Some(&*dir), &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["cases"].as_array().unwrap().len(), 6);
        assert_eq!(v["all_ok"], serde_json::Value::Bool(true));
        let csv = std::fs::read_to_string(dir.join("chaos.csv")).unwrap();
        assert!(csv.starts_with("case,green_delivery,"), "{csv}");
        assert_eq!(csv.lines().count(), 7, "header + one line per case: {csv}");
    }

    #[test]
    fn parses_live_flags() {
        let cmd =
            parse_args(&args("live --duration 2 --bottleneck-mbps 8 --share 0.25 --mem --json"))
                .unwrap();
        match cmd {
            Command::Live { config, json, telemetry } => {
                assert_eq!(config.duration, SimDuration::from_secs(2));
                assert_eq!(config.bottleneck, Rate::from_mbps(8.0));
                assert_eq!(config.pels_share, 0.25);
                assert_eq!(config.backend, LiveBackend::Memory);
                assert!(config.faults.is_none());
                assert!(json);
                assert!(telemetry.is_none());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_args(&args("live")).unwrap(),
            Command::Live { config, json: false, .. } if config.backend == LiveBackend::UdpLoopback
        ));
        assert!(parse_args(&args("live --share 0")).is_err());
        assert!(parse_args(&args("live --share 1.5")).is_err());
        assert!(parse_args(&args("live --duration -1")).is_err());
        assert!(parse_args(&args("live --bottleneck-mbps 0")).is_err());
        let err = parse_args(&args("live --faults /nonexistent/sched.json")).unwrap_err().0;
        assert!(err.starts_with("cannot read /nonexistent/sched.json"), "{err}");
    }

    #[test]
    fn wire_chaos_command_runs_matrix() {
        let cmd = parse_args(&args("chaos --short --json")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["cases"].as_array().unwrap().len(), 6);
        assert_eq!(v["all_ok"], serde_json::Value::Bool(true));
        assert_eq!(v["duration_s"].as_f64(), Some(10.0), "--short is the 10 s preset");
    }

    #[test]
    fn a_fault_schedule_whose_fractions_round_past_one_parses() {
        let dir = TestDir::new("faults_sum");
        let path = dir.join("sched.json");
        let mut faults = pels_wire::LiveFaults::default();
        let tx = &mut faults.server.tx;
        (tx.drop, tx.duplicate, tx.reorder) = (0.34, 0.56, 0.10);
        std::fs::write(&path, serde_json::to_string(&faults).unwrap()).unwrap();
        let line = format!("live --duration 2 --mem --faults {}", path.display());
        let Command::Live { config, .. } = parse_args(&args(&line)).unwrap() else {
            panic!("live")
        };
        assert_eq!(config.faults, Some(faults));
    }

    #[test]
    fn live_command_reads_a_fault_schedule() {
        let dir = TestDir::new("faults");
        let path = dir.join("sched.json");
        let line = format!("live --duration 2 --mem --faults {}", path.display());
        let mut spec = pels_wire::LiveFaults::default();
        spec.server.tx.drop = 0.2;
        std::fs::write(&path, serde_json::to_string(&spec).unwrap()).unwrap();
        let cmd = parse_args(&args(&line)).unwrap();
        let mut buf = Vec::new();
        execute(cmd, Some(&*dir), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let fault_line = text.lines().find(|l| l.trim_start().starts_with("faults:"));
        let Some(fault_line) = fault_line else { panic!("no faults line in:\n{text}") };
        assert!(!fault_line.contains(" 0 dropped"), "20% tx drop must fire: {fault_line}");

        // An invalid schedule is rejected on the command line by
        // `LiveConfig::validate`, naming the endpoint and direction; one
        // written for the former `source`/`router`/`receiver` schema names
        // the keys a schedule has.
        let rejected = |text: String| {
            std::fs::write(&path, text).unwrap();
            let err = parse_args(&args(&line)).unwrap_err().0;
            assert!(!err.contains('\n'), "{err}");
            err
        };
        spec.server.tx.drop = 1.5;
        let err = rejected(serde_json::to_string(&spec).unwrap());
        assert!(err.contains("bad live config: server: tx:"), "{err}");
        spec.server.tx.drop = 0.2;
        let err =
            rejected(serde_json::to_string(&spec).unwrap().replace("\"server\"", "\"source\""));
        assert!(
            err.contains("bad fault schedule") && err.contains("`server` and `receiver`"),
            "{err}"
        );
    }

    #[test]
    fn live_command_streams_in_memory_and_writes_csv() {
        let dir = TestDir::new("live");
        let cmd = parse_args(&args("live --duration 1 --mem --json")).unwrap();
        let mut buf = Vec::new();
        execute(cmd, Some(&*dir), &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        let flows = v["flows"].as_array().unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0]["frames_sent"].as_u64(), Some(20), "1 s at 20 fps");
        let csv = std::fs::read_to_string(dir.join("live.csv")).unwrap();
        assert!(csv.lines().any(|l| l.starts_with("flow,1,")), "{csv}");
    }

    #[test]
    fn run_with_telemetry_writes_parseable_snapshots_and_metrics_reads_them() {
        let dir = TestDir::new("tel");
        let path = dir.join("run.jsonl");
        let cmd = parse_args(&args(&format!(
            "run --flows 2 --duration 3 --json --telemetry {}",
            path.display()
        )))
        .unwrap();
        match &cmd {
            Command::Run { telemetry: Some(p), .. } => assert!(p.ends_with("run.jsonl")),
            other => panic!("{other:?}"),
        }
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = pels_telemetry::parse_snapshot_lines(&text).unwrap();
        assert_eq!(lines.len(), 3, "one scrape per simulated second");
        let last = &lines.last().unwrap().snapshot;
        assert!(last.counters["sim.flow0.feedback_epochs"] > 0);
        assert!(last.series.contains_key("sim.flow0.rate_kbps"), "--telemetry keeps series");
        assert!(last.series.contains_key("sim.router0.p"));
        assert!(last.stats["sim.flow1.delay.green"].hist.is_some());
        assert!(last.gauges.contains_key("sim.events"));
        // Only the scrape that ends the run carries the bulk, so the file
        // grows linearly with the run.
        for periodic in &lines[..2] {
            let s = &periodic.snapshot;
            assert!(s.counters["sim.router0.feedback_ticks"] > 0);
            assert!(s.series.is_empty() && s.stats.values().all(|st| st.hist.is_none()));
        }
        let last_line = text.lines().last().unwrap();
        assert!(text.len() <= 2 * last_line.len(), "{} vs {}", text.len(), last_line.len());

        let cmd = parse_args(&args(&format!("metrics {}", path.display()))).unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("3 snapshot(s)"), "{text}");
        for row in [
            "counters:",
            "sim.flow0.feedback_epochs",
            "sim.router0.drops.red",
            "gauges:",
            "sim.router0.wrr_turns",
            "distributions:",
            "sim.flow0.delay.red",
            "series:",
            "sim.flow0.rate_kbps",
            "sim.router0.p_red",
        ] {
            assert!(text.contains(row), "{row} missing from:\n{text}");
        }
    }

    #[test]
    fn live_with_telemetry_streams_snapshots() {
        let dir = TestDir::new("tel_live");
        let path = dir.join("live.jsonl");
        let cmd = parse_args(&args(&format!(
            "live --duration 1 --mem --json --telemetry {}",
            path.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, Some(&*dir), &mut buf).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = pels_telemetry::parse_snapshot_lines(&text).unwrap();
        let last = &lines.last().unwrap().snapshot;
        assert!(last.counters["wire.serve.acks"] > 0);
        assert!(last.counters.contains_key("wire.serve.tx"));
    }

    #[test]
    fn metrics_rejects_missing_and_bad_files() {
        assert!(parse_args(&args("metrics")).is_err());
        assert!(parse_args(&args("metrics a.jsonl b.jsonl")).is_err());
        failure(Command::Metrics { path: "/nonexistent/pels.jsonl".into() });
        let dir = TestDir::new("tel_bad");
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        failure(parse_args(&args(&format!("metrics {}", bad.display()))).unwrap());
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        failure(parse_args(&args(&format!("metrics {}", empty.display()))).unwrap());
    }

    #[test]
    fn parses_topo_run_flags() {
        let cmd = parse_args(&args("run --topology fattree:k=4,flows=8 --duration 5")).unwrap();
        match cmd {
            Command::RunTopo { spec, duration_s, json, .. } => {
                assert!(matches!(spec.generator, pels_topo::spec::GeneratorSpec::FatTree { k: 4 }));
                assert_eq!(spec.flows(), 8);
                assert_eq!(duration_s, 5.0);
                assert!(!json);
            }
            other => panic!("{other:?}"),
        }
        // --seed overrides the shorthand's (absent) seed.
        let cmd = parse_args(&args("run --topology waxman:routers=12 --seed 9")).unwrap();
        assert!(matches!(cmd, Command::RunTopo { ref spec, .. } if spec.seed() == 9));
        // Dumbbell-only flags are rejected with the topo flags.
        assert!(parse_args(&args("run --topology fattree:k=4 --flows 2")).is_err());
        assert!(parse_args(&args("run --topology fattree:k=4 --mode fifo")).is_err());
        assert!(parse_args(&args("run --topology nonsense:x=1")).is_err());
        // Generator invariants (odd fat-tree arity) surface at build time.
        failure(parse_args(&args("run --topology fattree:k=3 --duration 1")).unwrap());
        assert!(parse_args(&args("run --topo-spec /nonexistent.json")).is_err());
    }

    #[test]
    fn topo_spec_file_parses_and_conflicts_with_shorthand() {
        let dir = TestDir::new("topo_spec");
        let path = dir.join("spec.json");
        std::fs::write(&path, r#"{"generator": {"FatTree": {"k": 4}}, "flows": 6}"#).unwrap();
        let cmd = parse_args(&args(&format!("run --topo-spec {}", path.display()))).unwrap();
        match cmd {
            Command::RunTopo { spec, .. } => {
                assert!(matches!(spec.generator, pels_topo::spec::GeneratorSpec::FatTree { k: 4 }));
                assert_eq!(spec.flows(), 6);
            }
            other => panic!("{other:?}"),
        }
        let err = parse_args(&args(&format!(
            "run --topo-spec {} --topology fattree:k=4",
            path.display()
        )))
        .unwrap_err();
        assert!(err.0.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn topo_run_executes_and_writes_the_results_csv() {
        let dir = TestDir::new("topo_run");
        let cmd = parse_args(&args(
            "run --topology parkinglot:segments=2,cross=1,flows=3 --duration 2 --json",
        ))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, Some(&*dir), &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["family"].as_str(), Some("parkinglot"));
        assert_eq!(v["bottlenecks"].as_array().unwrap().len(), 2);
        let csv = std::fs::read_to_string(dir.join("topo_parkinglot.csv")).unwrap();
        assert!(csv.lines().count() >= 3, "header + one line per bottleneck: {csv}");
        assert!(csv.starts_with("family,seed,"), "{csv}");
    }

    #[test]
    fn topo_sweep_parses_and_runs() {
        let cmd =
            parse_args(&args("sweep --flows-list 1,2 --topology waxman:routers=8 --duration 1"))
                .unwrap();
        let Command::SweepTopo { specs, .. } = &cmd else { panic!("{cmd:?}") };
        let flows: Vec<usize> = specs.iter().map(TopoSpec::flows).collect();
        assert_eq!(flows, [1, 2]);
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("1 flows on waxman"), "{text}");
        assert!(text.contains("2 flows on waxman"), "{text}");
        assert!(text.contains("max bottleneck dev"), "{text}");
    }

    /// Every default a command shares with the library it drives is the
    /// library's own: the parser restates none of them.
    #[test]
    fn defaults_are_the_library_constructors() {
        let Command::Serve { config: serve, telemetry, json } = parse_args(&args("serve")).unwrap()
        else {
            panic!("serve")
        };
        let lib = ServeConfig::new(SERVE_ADDR);
        assert_eq!(serve.listen, lib.listen);
        assert_eq!(serve.capacity, lib.capacity);
        assert_eq!(serve.max_flows, lib.max_flows);
        assert_eq!(serve.packet_bytes, lib.packet_bytes);
        assert_eq!(serve.telemetry_per_flow, lib.telemetry_per_flow);
        assert_eq!(serve.trace, lib.trace);
        assert_eq!(serve.color_limits, lib.color_limits);
        assert!(telemetry.is_none() && !json && !serve.telemetry.is_enabled());

        let Command::Loadgen { config: loadgen, .. } = parse_args(&args("loadgen")).unwrap() else {
            panic!("loadgen")
        };
        let lib = LoadgenConfig::new(SERVE_ADDR);
        assert_eq!(loadgen.server, lib.server);
        assert_eq!(loadgen.listen, lib.listen);
        assert_eq!(loadgen.flows, lib.flows);
        assert_eq!(loadgen.duration, lib.duration);
        assert_eq!(loadgen.ramp, lib.ramp);
        assert_eq!(loadgen.warmup, lib.warmup);

        let Command::Live { config: live, .. } = parse_args(&args("live")).unwrap() else {
            panic!("live")
        };
        let lib = LiveConfig::default();
        assert_eq!(live.duration, lib.duration);
        assert_eq!(live.bottleneck, lib.bottleneck);
        assert_eq!(live.pels_share, lib.pels_share);
        assert_eq!(live.backend, lib.backend);
        assert_eq!(live.trace, lib.trace);
        assert!(live.faults.is_none() && lib.faults.is_none());

        let Command::Trace { config, .. } = parse_args(&args("trace")).unwrap() else {
            panic!("trace")
        };
        assert_eq!(config, TraceGenConfig::default());
        let Command::Chaos { config, wire: true, .. } = parse_args(&args("chaos --wire")).unwrap()
        else {
            panic!("chaos --wire")
        };
        let lib = pels_wire::chaos::default_config();
        assert_eq!((config.seed, config.duration), (lib.seed, lib.duration));
        let Command::Chaos { config, wire: false, .. } = parse_args(&args("chaos")).unwrap() else {
            panic!("chaos")
        };
        let lib = ChaosConfig::default();
        assert_eq!((config.seed, config.duration), (lib.seed, lib.duration));
        assert_eq!(config.window, lib.window);
    }

    #[test]
    fn parses_serve_flags() {
        match parse_args(&args("serve")).unwrap() {
            // The command serves twice as long as the library's default run.
            Command::Serve { config, .. } => {
                assert_eq!(config.duration, SimDuration::from_secs(10))
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse_args(&args(
            "serve --listen [::1]:0 --duration 2 --capacity-mbps 50 --max-flows 8 \
             --packet-bytes 1000 --telemetry-per-flow --json",
        ))
        .unwrap();
        match cmd {
            Command::Serve { config, json, .. } => {
                assert!(config.listen.is_ipv6());
                assert_eq!(config.duration, SimDuration::from_secs(2));
                assert_eq!(config.capacity, Rate::from_mbps(50.0));
                assert_eq!((config.max_flows, config.packet_bytes), (8, 1000));
                assert!(config.telemetry_per_flow && json);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("serve --listen nonsense")).is_err());
        assert!(parse_args(&args("serve --duration 0")).is_err());
        assert!(parse_args(&args("serve --capacity-mbps -1")).is_err());
        assert!(parse_args(&args("serve --max-flows 0")).is_err());
        // Sizes that would overrun a peer's receive slot, or allocate by
        // the gigabyte, never get past the command line.
        assert!(parse_args(&args("serve --packet-bytes 1970")).is_ok());
        for bad in ["--packet-bytes 0", "--packet-bytes 3000", "--packet-bytes 4000000000"] {
            let err = parse_args(&args(&format!("serve {bad}"))).unwrap_err();
            assert!(err.0.contains("1..=1970") && !err.0.contains('\n'), "{bad}: {}", err.0);
        }
    }

    #[test]
    fn parses_loadgen_flags() {
        // Short runs shrink the derived ramp/warmup defaults.
        let cmd = parse_args(&args("loadgen --duration 2 --flows 9")).unwrap();
        assert!(matches!(
            cmd,
            Command::Loadgen { config, .. } if config.flows == 9
                && config.duration == SimDuration::from_secs(2)
                && config.ramp == SimDuration::from_millis(500)
                && config.warmup == SimDuration::from_secs(1)
        ));
        assert!(parse_args(&args("loadgen --flows 0")).is_err());
        assert!(parse_args(&args("loadgen --warmup 5 --duration 4")).is_err());
        assert!(parse_args(&args("loadgen --ramp -1")).is_err());
        assert!(parse_args(&args("loadgen --server nowhere")).is_err());
    }

    #[test]
    fn serve_command_executes_an_idle_server() {
        let dir = TestDir::new("tel_serve");
        let path = dir.join("serve.jsonl");
        let cmd = parse_args(&args(&format!(
            "serve --listen 127.0.0.1:0 --duration 1.2 --json --telemetry {}",
            path.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["peak_flows"].as_u64(), Some(0), "no clients registered");
        assert_eq!(v["leaked_flows"].as_u64(), Some(0));
        // One scrape a second and one at exit, which is the report.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines = pels_telemetry::parse_snapshot_lines(&text).unwrap();
        assert_eq!(lines.len(), 2, "{text}");
        let last = &lines[1].snapshot.counters;
        assert!(last["wire.serve.timer_events"] > 30, "the router ticks every 30 ms");
        assert_eq!(Some(last["wire.serve.timer_events"]), v["timer_events"].as_u64());
        assert_eq!(Some(last["wire.serve.acks"]), v["acks"].as_u64());
    }

    #[test]
    fn loadgen_command_survives_an_absent_server() {
        // UDP is connectionless: HELLOs into a dead port either vanish or
        // bounce as ICMP refusals (counted as send drops), never an error.
        let cmd = parse_args(&args(
            "loadgen --server 127.0.0.1:9 --flows 2 --duration 0.3 --warmup 0.1 --json",
        ))
        .unwrap();
        let mut buf = Vec::new();
        execute(cmd, None, &mut buf).unwrap();
        let v: serde_json::Value = serde_json::from_slice(&buf).unwrap();
        assert_eq!(v["flows_sustained"].as_u64(), Some(0), "{v}");
        assert_eq!(v["data_received"].as_u64(), Some(0), "{v}");
    }

    #[test]
    fn run_rejects_each_malformed_config_value_with_one_line() {
        let dir = TestDir::new("bad_config");
        let base = ScenarioConfig::default;
        let mut zero_fps = base().trace;
        zero_fps.fps = 0.0;
        let no_frames = serde_json::from_str(r#"{"fps":10.0,"frames":[]}"#).unwrap();
        // A frame with nothing to pace, and one whose 80 001 packets wrap
        // the u16 packet index.
        let one_frame = |base| pels_fgs::frame::VideoTrace::constant(1, 10.0, base, 0);
        // Gains the controllers refuse: a panic in the build before.
        let mut bad_beta = base();
        let mkc = pels_core::mkc::MkcConfig { beta: -1.0, ..Default::default() };
        bad_beta.flows[1].cc = pels_core::source::CcSpec::Mkc(mkc);
        let mut bad_sigma = base();
        bad_sigma.flows[0].gamma.sigma = -5.0;
        let cases = [
            ("packet_bytes", ScenarioConfig { packet_bytes: 0, ..base() }),
            ("fps", ScenarioConfig { trace: zero_fps, ..base() }),
            ("bottleneck", ScenarioConfig { bottleneck: pels_netsim::time::Rate::ZERO, ..base() }),
            ("frames", ScenarioConfig { trace: no_frames, ..base() }),
            ("flows", ScenarioConfig { flows: vec![], ..base() }),
            ("no_base", ScenarioConfig { trace: one_frame(0), ..base() }),
            ("huge_frame", ScenarioConfig { trace: one_frame(40_000_000), ..base() }),
            ("beta", bad_beta),
            ("sigma", bad_sigma),
        ];
        for (what, cfg) in cases {
            let path = dir.join(format!("{what}.json"));
            std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
            let cmd = parse_args(&args(&format!("run --config {} --duration 1", path.display())))
                .unwrap_or_else(|e| panic!("{what} must parse as JSON: {e}"));
            let err = failure(cmd);
            assert!(!err.is_empty() && !err.contains('\n'), "{what}: {err:?}");
        }
    }

    #[test]
    fn config_file_roundtrip_via_disk() {
        let dir = TestDir::new("config");
        let path = dir.join("cfg.json");
        let cfg = ScenarioConfig::default();
        std::fs::write(&path, serde_json::to_string(&cfg).unwrap()).unwrap();
        let cmd =
            parse_args(&args(&format!("run --config {} --duration 1", path.display()))).unwrap();
        match cmd {
            Command::Run { config, .. } => assert_eq!(config.flows.len(), 2),
            other => panic!("{other:?}"),
        }
    }
}
