//! Runs the experiment table (`pels_bench::EXPERIMENTS`) in-process and
//! writes each row's files under `$PELS_RESULTS_DIR` (default: the
//! workspace's `results/`), printing a line per file and per check.

use pels_bench::{results_dir, run_rows, write_result, EXPERIMENTS};
use std::process::ExitCode;

fn main() -> ExitCode {
    let Err(e) = run() else { return ExitCode::SUCCESS };
    eprintln!("run_all: {e}");
    ExitCode::FAILURE
}

/// Runs what the command line asks for; fails on a bad command line, a
/// failed check or a file that cannot be written.
fn run() -> Result<(), String> {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    let usage = format!("usage: run_all [--jobs N] [NAME…]\nNAME: {}", names.join(" "));
    let (mut jobs, mut rows) = (1, Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{usage}");
                return Ok(());
            }
            "--jobs" => {
                let n = args.next().and_then(|v| v.parse().ok()).filter(|&j| j > 0);
                jobs = n.ok_or(format!("--jobs needs a count of at least 1\n{usage}"))?;
            }
            name => match EXPERIMENTS.iter().find(|row| row.0 == name) {
                Some(&row) => rows.push(row),
                None => return Err(format!("unknown experiment or flag `{name}`\n{usage}")),
            },
        }
    }
    if rows.is_empty() {
        rows = EXPERIMENTS.to_vec();
    }
    // The environment is read here, once; the library takes directories.
    let asked = std::env::var_os("PELS_RESULTS_DIR").map(std::path::PathBuf::from);
    let dir = results_dir(asked.as_deref()).map_err(|e| e.to_string())?;
    let mut failed = 0;
    run_rows(&rows, jobs, |row, outcome| {
        for (name, contents) in &outcome.files {
            match write_result(&dir, name, contents) {
                Ok(path) => println!("[written {}]", path.display()),
                Err(e) => {
                    eprintln!("run_all: {row}: {e}");
                    failed += 1;
                }
            }
        }
        for check in &outcome.checks {
            println!("{row:<24} {check}");
            failed += usize::from(!check.ok());
        }
    });
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} failed checks or writes")),
    }
}
