//! The benchmark's own CI (`ci.sh` sits outside this package's paths): run
//! the smoke preset through the real binary and check that what it prints
//! is what `BENCHMARK.json` promises — names, units, finite values.

use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("benchmark/ sits in the repo").into()
}

fn benchmark(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pels-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn contract() -> Value {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// (name, unit) pairs of one `BENCHMARK.json` metric list, in order.
fn promised(contract: &Value, key: &str) -> Vec<(String, String)> {
    contract[key]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| (m["name"].as_str().unwrap().to_string(), m["unit"].as_str().unwrap().to_string()))
        .collect()
}

/// Checks one result line against the promised metrics and returns it.
fn check_result_line(stdout: &str, promised: &[(String, String)]) -> Value {
    let last = stdout.lines().last().expect("a result line");
    let line: Value = serde_json::from_str(last).expect("the last line is JSON");
    let keys: Vec<&str> = line.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line["correct"].as_bool(), Some(true), "{last}");
    assert!(line["attempted"].as_u64().unwrap() >= 1);
    assert_eq!(line["failed"].as_u64(), Some(0));
    let got: Vec<(String, String)> = line["metrics"]
        .as_object()
        .unwrap()
        .iter()
        .map(|(name, m)| {
            let value = m["value"].as_f64().unwrap_or(f64::NAN);
            assert!(value.is_finite(), "{name} is not a finite number");
            (name.clone(), m["unit"].as_str().unwrap().to_string())
        })
        .collect();
    assert_eq!(got, promised, "metric names and units, in BENCHMARK.json order");
    line
}

// One test, because runs share `benchmark/out/` and the host's cores.
#[test]
fn smoke_preset_prints_what_benchmark_json_promises() {
    let contract = contract();
    let end_to_end = promised(&contract, "end_to_end");
    let per_layer = promised(&contract, "per_layer");

    // The driver's form of the command, one workload of each stack.
    for workload in ["sim_chained", "wire_paced"] {
        let run = |trace: &str| {
            benchmark(&[
                "--workload",
                workload,
                "--seed",
                "7",
                "--seconds",
                "2",
                "--trace",
                trace,
                "--smoke",
            ])
        };
        let line = check_result_line(&run("0"), &end_to_end);
        for (name, m) in line["metrics"].as_object().unwrap() {
            assert!(m["value"].as_f64().unwrap() > 0.0, "{workload}: end-to-end {name} is zero");
        }
        check_result_line(&run("1"), &per_layer);
        let trace = repo_root().join(format!("benchmark/out/trace-{workload}.json"));
        let spans: Value = serde_json::from_str(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let spans = spans["spans"].as_array().unwrap();
        assert!(spans.iter().any(|s| !s["parent"].is_null()), "spans name their parent");
    }

    // The one command: gate, every workload untraced and traced, one set.
    let stdout = benchmark(&["--smoke", "--traced", "--seed", "7"]);
    assert!(stdout.contains("all gates passed"), "{stdout}");
    let set = std::fs::read_to_string(repo_root().join("benchmark/out/set-seed7.json")).unwrap();
    let set: Value = serde_json::from_str(&set).unwrap();
    let run = &set["runs"][0];
    for w in contract["workloads"].as_array().unwrap() {
        let entry = &run[w["name"].as_str().unwrap()];
        assert_eq!(entry["untraced"]["end_to_end"].as_object().unwrap().len(), end_to_end.len());
        assert!(entry["trace_overhead_pct"].as_f64().unwrap().is_finite());
        assert_eq!(entry["traced"]["env"]["traced"].as_bool(), Some(true));
    }
}
