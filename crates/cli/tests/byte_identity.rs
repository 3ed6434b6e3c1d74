//! `pels` prints the same bytes for the same command line.
//!
//! Each case runs the built `pels` binary in a directory of its own (also
//! its `$PELS_RESULTS_DIR`) and pins the FNV-1a digest of its stdout and of
//! every file it leaves there. The directory's path is replaced by `$DIR`
//! before hashing, so `[written …]` notices and `pels metrics` headers hash
//! the same everywhere. The digests were recorded before the parser was
//! rebuilt on the library configs; a digest that moves is an output change.

use std::path::{Path, PathBuf};
use std::process::Command;

/// FNV-1a 64-bit, as `tests/report_digests.rs` computes it.
fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

/// A directory unique to this process and case, removed on drop.
struct CaseDir(PathBuf);

impl CaseDir {
    fn new(case: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pels_bytes_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        CaseDir(dir)
    }
}

impl Drop for CaseDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs each command line (`{dir}` stands for the case directory, `{tests}`
/// for this directory of test files) and
/// returns `(artifact, digest)` for every stdout, in order, then for every
/// file the commands left, by name.
fn artifacts(case: &str, lines: &[&str]) -> Vec<(String, String)> {
    let dir = CaseDir::new(case);
    let shown = dir.0.display().to_string();
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let args: Vec<String> = line
            .split_whitespace()
            .map(|a| a.replace("{dir}", &shown).replace("{tests}", TESTS_DIR))
            .collect();
        let run = Command::new(env!("CARGO_BIN_EXE_pels"))
            .args(&args)
            .env("PELS_RESULTS_DIR", &dir.0)
            .output()
            .unwrap();
        assert!(run.status.success(), "`pels {line}`: {}", String::from_utf8_lossy(&run.stderr));
        let stdout = String::from_utf8(run.stdout).unwrap().replace(&shown, "$DIR");
        found.push((format!("stdout{i}"), digest(stdout.as_bytes())));
    }
    let mut files: Vec<PathBuf> =
        std::fs::read_dir(&dir.0).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort();
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap().to_string();
        found.push((name, digest(&std::fs::read(Path::new(&path)).unwrap())));
    }
    found
}

/// This directory: `config_template_with_every_knob.json` is what `pels
/// config-template` printed while every knob of the control path was a
/// config field. The reader skips the keys it no longer knows, so the file
/// still runs, to the same bytes.
const TESTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests");

/// A case's name, the command lines it runs, and `(artifact, digest)` for
/// everything they print and write.
type Case = (&'static str, &'static [&'static str], &'static [(&'static str, &'static str)]);

#[test]
fn every_listed_command_prints_its_pinned_bytes() {
    let cases: &[Case] = &[
        ("help", &["help"], &[("stdout0", "af4c45f641c15f94")]),
        ("model", &["model"], &[("stdout0", "6b70416d8c2b93f4")]),
        ("gamma", &["gamma"], &[("stdout0", "20173700b2dba6ce")]),
        ("trace", &["trace --frames 10 --seed 3"], &[("stdout0", "e50766a0a5d8745f")]),
        // Re-pinned when the single-value knobs became constants: the
        // template prints the fields a config still has.
        ("template", &["config-template"], &[("stdout0", "c68b6c548838afe8")]),
        (
            "old_template",
            &["run --config {tests}/config_template_with_every_knob.json --duration 3 --json"],
            &[("stdout0", "f055119963d8678c")],
        ),
        ("run_text", &["run --flows 2 --duration 3"], &[("stdout0", "03107553d69e4152")]),
        ("run_json", &["run --flows 2 --duration 3 --json"], &[("stdout0", "f055119963d8678c")]),
        (
            "topo",
            &["run --topology parkinglot:segments=2,cross=1,flows=3 --duration 2"],
            &[("stdout0", "f88a95c1202c1a3c"), ("topo_parkinglot.csv", "ca0ac8275e6e13e9")],
        ),
        ("sweep", &["sweep --flows-list 1,2 --duration 2"], &[("stdout0", "7f63968b20ef8f2b")]),
        (
            "chaos",
            &["chaos --seed 3 --duration 12"],
            &[("stdout0", "9e0118cb212ba009"), ("chaos.csv", "396963d2d82a7c85")],
        ),
        (
            "live",
            &["live --mem --duration 2"],
            &[("stdout0", "407e33bbb492f705"), ("live.csv", "5fdb094f4f6b3268")],
        ),
        // The wire recovery matrix and a live run with every fate and a
        // blackout on both endpoints: the fault vocabulary both stacks share.
        ("wire_chaos", &["chaos --short"], &[("stdout0", "e0d6ea2ed136a009")]),
        ("wire_chaos_json", &["chaos --short --json"], &[("stdout0", "89842f3d0e9e79d8")]),
        (
            "live_faults",
            &["live --mem --duration 2 --faults {tests}/live_faults.json --json"],
            &[("stdout0", "bedbf4cabe519dad"), ("live.csv", "abd751f37b169bab")],
        ),
        (
            "live_faults_text",
            &["live --mem --duration 2 --faults {tests}/live_faults.json"],
            &[("stdout0", "50ad37de9751cb08"), ("live.csv", "abd751f37b169bab")],
        ),
        (
            "metrics",
            &["run --flows 2 --duration 3 --telemetry {dir}/run.jsonl", "metrics {dir}/run.jsonl"],
            &[
                ("stdout0", "03107553d69e4152"),
                ("stdout1", "7b00da10fc81fbca"),
                ("run.jsonl", "255c27eb6c97be61"),
            ],
        ),
    ];
    let mut moved = Vec::new();
    for (case, lines, pinned) in cases {
        let found = artifacts(case, lines);
        let want: Vec<(String, String)> =
            pinned.iter().map(|(a, d)| (a.to_string(), d.to_string())).collect();
        if found != want {
            moved.push(format!("{case}: {found:?}"));
        }
    }
    assert!(moved.is_empty(), "digests moved:\n{}", moved.join("\n"));
}

/// With `--json`, stdout is the report and nothing else, also for the
/// commands that write a results CSV beside it.
#[test]
fn json_stdout_parses_as_json() {
    let lines = [
        "live --mem --duration 2 --json",
        "chaos --seed 3 --duration 12 --json",
        "run --topology parkinglot:segments=2,cross=1,flows=3 --duration 2 --json",
    ];
    for (i, line) in lines.iter().enumerate() {
        let dir = CaseDir::new(&format!("json{i}"));
        let run = Command::new(env!("CARGO_BIN_EXE_pels"))
            .args(line.split_whitespace())
            .env("PELS_RESULTS_DIR", &dir.0)
            .output()
            .unwrap();
        assert!(run.status.success(), "`pels {line}`: {}", String::from_utf8_lossy(&run.stderr));
        if let Err(e) = serde_json::from_slice::<serde_json::Value>(&run.stdout) {
            panic!(
                "`pels {line}` stdout is not JSON ({e}):\n{}",
                String::from_utf8_lossy(&run.stdout)
            );
        }
        assert_eq!(std::fs::read_dir(&dir.0).unwrap().count(), 1, "`pels {line}` wrote its CSV");
    }
}

/// A `--telemetry` file that loses snapshots fails the run after its
/// report: the count and the path go to stderr, the exit status is 1.
#[test]
fn telemetry_that_cannot_be_written_fails_the_run() {
    if !Path::new("/dev/full").exists() {
        return;
    }
    let dir = CaseDir::new("telemetry_full");
    let run = Command::new(env!("CARGO_BIN_EXE_pels"))
        .args(["run", "--duration", "1", "--telemetry", "/dev/full"])
        .env("PELS_RESULTS_DIR", &dir.0)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("1 telemetry snapshot(s)") && stderr.contains("/dev/full"), "{stderr}");
    assert!(
        String::from_utf8_lossy(&run.stdout).starts_with("ran 1 s:"),
        "the report still prints"
    );
}
