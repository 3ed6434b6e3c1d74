//! The experiment table reproduces `results/`: every row of
//! `pels_bench::EXPERIMENTS` runs in-process, every check it makes holds,
//! and every file it produces is byte-equal to the tracked copy under
//! `results/`. Nothing is written: a byte that moves is a behaviour change
//! to explain (and `run_all` to re-record it).

use std::collections::BTreeSet;
use std::path::Path;

/// Tracked files under `results/` that `pels` writes, not the table.
const WRITTEN_BY_PELS: [&str; 4] = ["chaos.csv", "live.csv", "topo_fattree.csv", "topo_waxman.csv"];

#[test]
fn every_experiment_passes_its_checks_and_reproduces_its_tracked_results() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut problems = Vec::new();
    let mut produced = BTreeSet::new();
    pels_bench::run_rows(pels_bench::EXPERIMENTS, jobs, |row, outcome| {
        for check in outcome.checks.iter().filter(|c| !c.ok()) {
            problems.push(format!("{row}: {check}"));
        }
        for (name, contents) in outcome.files {
            match std::fs::read_to_string(results.join(&name)) {
                Ok(tracked) if tracked == contents => {}
                Ok(_) => problems.push(format!("{row}: {name} differs from results/{name}")),
                Err(e) => problems.push(format!("{row}: results/{name}: {e}")),
            }
            if !produced.insert(name.clone()) {
                problems.push(format!("{row}: {name} is produced twice"));
            }
        }
    });
    for entry in std::fs::read_dir(&results).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let by_pels = WRITTEN_BY_PELS.contains(&name.as_str()) || name == "README.md";
        if !by_pels && !produced.contains(&name) {
            problems.push(format!("results/{name} is produced by no experiment"));
        }
    }
    assert!(problems.is_empty(), "{} problem(s):\n{}", problems.len(), problems.join("\n"));
    assert_eq!(produced.len(), 26, "{produced:?}");
}

/// `results/chaos.csv` is what `pels chaos` writes at its defaults: the
/// simulator's fault matrix at `ChaosConfig::default()`.
#[test]
fn the_tracked_chaos_csv_is_the_default_fault_matrix() {
    let config = pels_core::chaos::ChaosConfig::default();
    let report = pels_core::chaos::run_matrix(&config, &pels_telemetry::Telemetry::disabled())
        .expect("the default matrix runs");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/chaos.csv");
    let tracked = std::fs::read_to_string(&path).expect("results/chaos.csv");
    assert_eq!(pels_core::chaos::to_csv(&report), tracked, "results/chaos.csv moved");
    assert!(report.all_ok);
}
