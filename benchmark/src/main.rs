//! The repo's benchmark. See `benchmark/README.md`; run through
//! `benchmark/run.sh`, which builds this package and executes it from the
//! repo root.
//!
//! Three entry points share one binary:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` runs one workload in
//!   this process and prints the driver's result line last;
//! * no `--workload` is the one command: the correctness gate, then every
//!   workload in a fresh child process (so peak RSS is per workload), then
//!   the table of every metric by name;
//! * `--compare A.json B.json` / `--selfcheck` judge two result sets
//!   against the bounds.

mod compare;
mod host;
mod probes;
mod record;
mod setup;
mod sim;
mod spec;
mod stats;
mod trace;
mod wire;

use record::{json, RunRecord};
use serde_json::Value;
use spec::{Stack, Workload, END_TO_END, GATED, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Every file the benchmark writes lands here (ignored by git).
const OUT_DIR: &str = "benchmark/out";
/// A full-size workload run must stay under this, set-up included.
const MAX_RUN_S: f64 = 30.0;

const USAGE: &str = "usage:
  run.sh [--seed S] [--seconds T] [--traced] [--smoke] [--runs K]   every workload, every metric
  run.sh --workload W --seed S --seconds T --trace 0|1 [--smoke]  one run, result line last
  run.sh --compare A.json B.json                                  judge B against A
  run.sh --selfcheck [--seed S] [--seconds T] [--smoke] [--runs K]  two sets of one build must agree";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    compare: Option<(PathBuf, PathBuf)>,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { seed: 1, runs: 1, ..Args::default() };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, &flag)?),
            "--seed" => {
                args.seed = value(&mut it, &flag)?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 =
                    value(&mut it, &flag)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("--seconds must be within 1..=60, got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, &flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => args.trace = true,
            "--smoke" => args.smoke = true,
            "--runs" => {
                args.runs = value(&mut it, &flag)?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=20).contains(&args.runs) {
                    return Err("--runs must be within 1..=20".into());
                }
            }
            "--compare" => {
                let a = PathBuf::from(value(&mut it, &flag)?);
                let b = PathBuf::from(value(&mut it, &flag)?);
                args.compare = Some((a, b));
            }
            "--selfcheck" => args.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn names(doc: &Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc[key]
        .as_array()
        .map(|items| {
            items
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap_or_default().to_string(),
                        m["unit"].as_str().unwrap_or_default().to_string(),
                        m["better"].as_str().unwrap_or_default().to_string(),
                        m["bound"].as_f64(),
                    )
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Loads `BENCHMARK.json`, checks it names exactly what this binary emits
/// (workloads, end-to-end metrics with bounds, per-layer metrics), and
/// returns its `run_seconds`.
fn load_contract() -> Result<f64, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repo root)"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut problems = Vec::new();

    let listed: Vec<&str> = doc["workloads"]
        .as_array()
        .map(|w| w.iter().filter_map(|x| x["name"].as_str()).collect())
        .unwrap_or_default();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if listed != ours {
        problems.push(format!("workloads {listed:?} != benchmark's {ours:?}"));
    }
    let e2e = names(&doc, "end_to_end");
    let ours: Vec<_> = END_TO_END
        .iter()
        .map(|e| {
            (
                e.metric.name.to_string(),
                e.metric.unit.to_string(),
                e.metric.better.label().to_string(),
                Some(e.bound),
            )
        })
        .collect();
    if e2e != ours {
        problems.push(format!("end_to_end differs: file {e2e:?}, benchmark {ours:?}"));
    }
    let layers = names(&doc, "per_layer");
    let ours: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.label().to_string(), None))
        .collect();
    for m in &ours {
        if !layers.contains(m) {
            problems.push(format!("per_layer metric {} missing from BENCHMARK.json", m.0));
        }
    }
    for m in &layers {
        if !ours.contains(m) {
            problems.push(format!("BENCHMARK.json per_layer metric {} not emitted", m.0));
        }
    }
    if !problems.is_empty() {
        return Err(format!(
            "BENCHMARK.json and the benchmark disagree:\n  {}",
            problems.join("\n  ")
        ));
    }
    doc["run_seconds"].as_f64().ok_or_else(|| "BENCHMARK.json: run_seconds missing".into())
}

fn write_out(name: &str, text: &str) -> Result<PathBuf, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(name);
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn record_file(workload: &str, traced: bool) -> String {
    format!("run-{workload}-t{}.json", u8::from(traced))
}

/// Prints one record's metrics by name, with unit, direction and bound.
fn print_record(rec: &RunRecord) {
    let size = if rec.env.smoke { "smoke size".into() } else { format!("{} s", rec.env.seconds) };
    println!("## {}  (seed {}, {size}, traced: {})", rec.workload, rec.env.seed, rec.env.traced);
    if let Some(w) = spec::workload(rec.workload) {
        println!("   why: {}", w.why);
    }
    for note in &rec.notes {
        println!("   {note}");
    }
    println!("   {:<34} {:>18} {:<6} {:<7} bound", "metric", "value", "unit", "better");
    for spec in END_TO_END.iter() {
        let v = rec.end_to_end(spec.metric.name).unwrap_or(f64::NAN);
        println!(
            "   {:<34} {:>18.6} {:<6} {:<7} {}",
            spec.metric.name,
            v,
            spec.metric.unit,
            spec.metric.better.label(),
            spec.compare_bound().label()
        );
    }
    for m in PER_LAYER.iter() {
        let Some(v) = rec.layer(m.name) else { continue };
        let bound = GATED.iter().find(|g| g.name == m.name).map(|g| g.bound.label());
        println!(
            "   {:<34} {:>18.6} {:<6} {:<7} {}",
            m.name,
            v,
            m.unit,
            m.better.label(),
            bound.as_deref().unwrap_or("-")
        );
    }
    println!(
        "   attempted {} flows, failed {}, correct: {}",
        rec.attempted,
        rec.failed,
        rec.correct()
    );
    for v in &rec.violations {
        println!("   VIOLATION: {v}");
    }
}

/// One workload in this process: the driver's contract.
fn run_one(workload: &'static Workload, args: &Args, seconds: f64) -> Result<(), String> {
    let (rec, tracer) = match workload.stack {
        Stack::Sim => {
            let mut tracer = trace::Tracer::new();
            let rec = sim::run(workload, args.seed, seconds, args.smoke, args.trace, &mut tracer);
            (rec, Some((tracer, 1)))
        }
        Stack::Wire => {
            let (rec, tracer) = wire::run(workload, args.seed, seconds, args.smoke, args.trace)?;
            (rec, tracer.map(|t| (t, wire::SPAN_SAMPLE)))
        }
    };
    for (name, v) in rec.end_to_end.iter().chain(&rec.layers) {
        if !v.is_finite() {
            return Err(format!("{}: metric {name} is not finite ({v})", workload.name));
        }
    }
    print_record(&rec);
    write_out(&record_file(workload.name, args.trace), &rec.to_value().to_string())?;
    if let (true, Some((tracer, sample_every))) = (args.trace, tracer) {
        let path = write_out(
            &format!("trace-{}.json", workload.name),
            &tracer.to_json(workload.name, sample_every),
        )?;
        println!("   {} spans written to {}", tracer.len(), path.display());
    }
    println!("{}", rec.contract_line());
    Ok(())
}

/// Runs one workload in a child process and returns its record, after
/// checking that the result line names exactly the metrics promised.
fn run_child(
    workload: &Workload,
    args: &Args,
    seconds: f64,
    traced: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        // No code path of the crates may reach the tracked BENCH_*.json or
        // results/: both overrides point into the ignored out directory.
        .env("PELS_BENCH_DIR", OUT_DIR)
        .env("PELS_RESULTS_DIR", OUT_DIR)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let started = Instant::now();
    let out = cmd.output().map_err(|e| format!("spawning {}: {e}", workload.name))?;
    let wall_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}:\n{stdout}", workload.name, out.status));
    }
    // The result line is the last one; everything before it is the
    // child's own table.
    let (body, last) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", stdout.trim_end()));
    let line: Value = serde_json::from_str(last)
        .map_err(|e| format!("{}: last line is not JSON ({e}): {last}", workload.name))?;
    let got: Vec<&str> = line["metrics"]
        .as_object()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let want: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|e| e.metric.name).collect()
    };
    if got != want {
        let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
        let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
        return Err(format!(
            "{}: result line and BENCHMARK.json disagree (missing {missing:?}, extra {extra:?})",
            workload.name
        ));
    }
    if !args.smoke && wall_s >= MAX_RUN_S {
        return Err(format!("{} took {wall_s:.1} s, the cap is {MAX_RUN_S} s", workload.name));
    }
    println!("{body}");
    println!("   run took {wall_s:.1} s end to end");
    let path = Path::new(OUT_DIR).join(record_file(workload.name, traced));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Same seed, same digest — twice, and at one worker against two.
fn determinism_gate(seed: u64) -> Result<(), String> {
    let first = sim::chained_smoke_digest(seed, 2);
    let again = sim::chained_smoke_digest(seed, 2);
    let serial = sim::chained_smoke_digest(seed, 1);
    println!("gate: sim_chained smoke digest {first} (repeat {again}, 1 worker {serial})");
    if first != again {
        return Err(format!("report digest differs between two runs of seed {seed}"));
    }
    if first != serial {
        return Err(format!("report digest differs between 2 workers and 1 at seed {seed}"));
    }
    Ok(())
}

/// Tracing overhead: how much worse the traced run's headline reads.
fn trace_overhead_pct(untraced: &Value, traced: &Value) -> Option<f64> {
    let base = untraced["end_to_end"]["pkts_per_s"].as_f64()?;
    let with = traced["end_to_end"]["pkts_per_s"].as_f64()?;
    Some((base - with) / base * 100.0)
}

/// One full set: every workload untraced, then (if asked) traced.
fn run_set(args: &Args, seconds: f64) -> Result<Value, String> {
    let mut set = Vec::new();
    let mut violations = Vec::new();
    for workload in WORKLOADS.iter() {
        let untraced = run_child(workload, args, seconds, false)?;
        let mut entry = vec![("untraced".to_string(), untraced)];
        if args.trace {
            let traced = run_child(workload, args, seconds, true)?;
            let overhead = trace_overhead_pct(&entry[0].1, &traced)
                .ok_or_else(|| format!("{}: pkts_per_s missing", workload.name))?;
            println!("   trace_overhead_pct {overhead:.2} % (traced vs untraced pkts_per_s)");
            entry.push(("traced".into(), traced));
            entry.push(("trace_overhead_pct".into(), json(&overhead)));
        }
        for (_, rec) in &entry {
            for v in rec["violations"].as_array().into_iter().flatten() {
                violations.push(format!("{}: {}", workload.name, v.as_str().unwrap_or("?")));
            }
        }
        set.push((workload.name.to_string(), Value::Object(entry)));
    }
    if !violations.is_empty() {
        return Err(format!("outputs are not correct:\n  {}", violations.join("\n  ")));
    }
    Ok(Value::Object(set))
}

fn run_sets(args: &Args, seconds: f64, label: &str) -> Result<Value, String> {
    let mut runs = Vec::with_capacity(args.runs);
    for i in 1..=args.runs {
        let size =
            if args.smoke { "smoke size".into() } else { format!("{seconds} s per workload") };
        println!("# set {label} run {i}/{} (seed {}, {size})", args.runs, args.seed);
        runs.push(run_set(args, seconds)?);
    }
    Ok(Value::Object(vec![
        ("schema".into(), Value::String("pels-benchmark-set/1".into())),
        ("nproc".into(), json(&host::nproc())),
        ("kernel".into(), Value::String(host::kernel())),
        ("commit".into(), Value::String(host::commit())),
        ("seed".into(), json(&args.seed)),
        ("seconds".into(), json(&seconds)),
        ("smoke".into(), Value::Bool(args.smoke)),
        ("runs".into(), Value::Array(runs)),
    ]))
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    if let Some((a, b)) = &args.compare {
        let load = |p: &Path| -> Result<Value, String> {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", p.display()))
        };
        return compare::print(&load(a)?, &load(b)?);
    }
    if let Some(name) = &args.workload {
        let workload = spec::workload(name).ok_or_else(|| {
            let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload `{name}` (one of {known:?})")
        })?;
        let seconds = args.seconds.ok_or("--workload needs --seconds")?;
        run_one(workload, &args, seconds)?;
        return Ok(true);
    }

    let run_seconds = load_contract()?;
    let seconds = args.seconds.unwrap_or(run_seconds);
    determinism_gate(args.seed)?;
    if args.selfcheck {
        let a = run_sets(&args, seconds, "A")?;
        let b = run_sets(&args, seconds, "B")?;
        write_out("selfcheck-A.json", &a.to_string())?;
        write_out("selfcheck-B.json", &b.to_string())?;
        let all_ok = compare::print(&a, &b)?;
        // Simulated statistics must not merely agree within a bound: the
        // same seed has to give the same report, byte for byte.
        for w in WORKLOADS.iter().filter(|w| w.stack == Stack::Sim) {
            let digests = |set: &Value| -> Vec<String> {
                set["runs"]
                    .as_array()
                    .into_iter()
                    .flatten()
                    .map(|run| run[w.name]["untraced"]["report_digest"].to_string())
                    .collect()
            };
            let (da, db) = (digests(&a), digests(&b));
            if da.iter().chain(&db).any(|d| *d != da[0]) {
                return Err(format!(
                    "{}: report digests differ across runs: {da:?} vs {db:?}",
                    w.name
                ));
            }
            println!("# {}: report digest {} in every run", w.name, da[0]);
        }
        return Ok(all_ok);
    }
    let set = run_sets(&args, seconds, "result")?;
    let path = write_out(&format!("set-seed{}.json", args.seed), &set.to_string())?;
    println!("# all gates passed; result set written to {}", path.display());
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) if msg.is_empty() => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(msg) => {
            eprintln!("benchmark failed: {msg}");
            ExitCode::FAILURE
        }
    }
}
