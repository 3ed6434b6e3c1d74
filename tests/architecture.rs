//! Line ratchets: the non-test code of the crates may shrink, never grow.
//!
//! A file's non-test code is every line before its first line that starts
//! with `#[cfg(test)]` (the test module may call what it likes). Each
//! ratchet is the count the code stood at when it was last lowered; a
//! change that takes lines out lowers it in the same change.

use std::fs;
use std::path::{Path, PathBuf};

/// Non-test lines under `crates/cli/src`. Each command carries the config
/// of the library it drives, built by that library's constructor and checked
/// by its own `validate`: a restated default or a second copy of a check
/// shows up here first.
const CLI: usize = 1_160;
/// Non-test lines under `crates/bench/src`. Every table, figure and ablation
/// is a row of `pels_bench::EXPERIMENTS`, run in-process by `run_all` and by
/// `tests/experiments.rs`: a per-row printer or a second harness shows up
/// here first.
const BENCH: usize = 1_292;
/// Non-test lines under every `crates/*/src`. A knob with one value in use
/// is a named constant beside the code that reads it: a config field, its
/// default, its plumbing and its validation coming back show up here first.
const CRATES: usize = 21_286;

/// The `.rs` files in `dir`, and in its subdirectories when `recurse`.
fn rust_files(dir: &Path, recurse: bool) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            if recurse {
                files.extend(rust_files(&path, true));
            }
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            files.push(path);
        }
    }
    files
}

/// How many lines of `path` come before its test module.
fn non_test_code(path: &Path) -> usize {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines().take_while(|line| !line.starts_with("#[cfg(test)]")).count()
}

/// Non-test lines of the `.rs` files in `dir` (relative to the repository).
fn lines_under(dir: &Path, recurse: bool) -> usize {
    rust_files(dir, recurse).iter().map(|f| non_test_code(f)).sum()
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn the_cli_stays_under_its_ratchet() {
    let lines = lines_under(&repo().join("crates/cli/src"), false);
    assert!(lines <= CLI, "crates/cli/src has {lines} non-test lines, over its ratchet of {CLI}");
}

#[test]
fn the_experiment_table_stays_under_its_ratchet() {
    let lines = lines_under(&repo().join("crates/bench/src"), true);
    assert!(lines <= BENCH, "crates/bench/src has {lines} non-test lines, over {BENCH}");
}

#[test]
fn the_crates_stay_under_their_ratchet() {
    let crates = fs::read_dir(repo().join("crates")).expect("the crates directory");
    let lines: usize = crates
        .map(|c| c.expect("a crate entry").path().join("src"))
        .filter(|src| src.is_dir())
        .map(|src| lines_under(&src, true))
        .sum();
    assert!(lines <= CRATES, "crates/*/src has {lines} non-test lines, over {CRATES}");
}
