//! Architecture gates: the non-test code of the crates may shrink, never
//! grow, and a few things exist in exactly one place.
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
const CLI: usize = 1_156;
/// Non-test lines under `crates/bench/src`. Every table, figure and ablation
/// is a row of `pels_bench::EXPERIMENTS`, run in-process by `run_all` and by
/// `tests/experiments.rs`: a per-row printer or a second harness shows up
/// here first.
const BENCH: usize = 1_292;
/// Non-test lines under every `crates/*/src`. A knob with one value in use
/// is a named constant beside the code that reads it: a config field, its
/// default, its plumbing and its validation coming back show up here first.
const CRATES: usize = 21_128;

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

/// The lines of `path` before its test module.
fn non_test_code(path: &Path) -> Vec<String> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines().take_while(|line| !line.starts_with("#[cfg(test)]")).map(String::from).collect()
}

/// Non-test lines of the `.rs` files in `dir` (relative to the repository).
fn lines_under(dir: &Path, recurse: bool) -> usize {
    rust_files(dir, recurse).iter().map(|f| non_test_code(f).len()).sum()
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let crates = fs::read_dir(repo().join("crates")).expect("the crates directory");
    let srcs = crates.map(|c| c.expect("a crate entry").path().join("src"));
    srcs.filter(|src| src.is_dir()).flat_map(|src| rust_files(&src, true)).collect()
}

/// `file:line: text` for each non-test line of `files` that `offends`,
/// skipping the files (relative to the repository) in `allowed`.
fn offenders(files: &[PathBuf], allowed: &[&str], offends: impl Fn(&str) -> bool) -> Vec<String> {
    let mut found = Vec::new();
    for file in files {
        let name = file.strip_prefix(repo()).expect("under the repository");
        if allowed.iter().any(|a| name == Path::new(a)) {
            continue;
        }
        for (i, line) in non_test_code(file).iter().enumerate() {
            if offends(line) {
                found.push(format!("{}:{}: {}", name.display(), i + 1, line.trim()));
            }
        }
    }
    found
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
    let lines: usize = crate_sources().iter().map(|f| non_test_code(f).len()).sum();
    assert!(lines <= CRATES, "crates/*/src has {lines} non-test lines, over {CRATES}");
}

/// A port schedules a completion only when a packet waits behind the one on
/// the wire (41 % of the shared bottleneck's events were idle completions
/// before). `Ev::Tx` is built by the queue's own conversions (event.rs), by
/// `Context::schedule_tx_complete_at` (sim.rs) and, through it, by `Port`
/// alone: a second, eager scheduling site must not come back.
#[test]
fn tx_completes_are_scheduled_in_one_place() {
    let allowed =
        ["crates/netsim/src/event.rs", "crates/netsim/src/sim.rs", "crates/netsim/src/port.rs"];
    let found = offenders(&crate_sources(), &allowed, |line| {
        line.contains("Ev::Tx") || line.contains("schedule_tx_complete")
    });
    assert!(
        found.is_empty(),
        "only netsim::port::Port schedules a tx-complete:\n{}",
        found.join("\n")
    );
}

/// A barrier batch is installed as the destination queue's lane and merged
/// at pop (`netsim::event`, "The cross-shard lane"); wrapping a packet in an
/// `Event` and injecting it — a stash, a heap push and a sift per packet,
/// 26 % of the shared bottleneck's events — must not come back beside it.
/// `Simulator::inject` is for routing faults to their shard.
#[test]
fn packets_reach_another_shard_through_the_lane_only() {
    let files = ["crates/netsim/src/shard.rs", "crates/netsim/src/sim.rs"].map(|f| repo().join(f));
    let found = offenders(&files, &[], |line| line.contains("Event::PacketArrival"));
    assert!(found.is_empty(), "cross-shard packets go through the lane:\n{}", found.join("\n"));
}

/// The fault fractions a policy can set, in partition order.
const FRACTIONS: [&str; 6] = ["drop", "duplicate", "reorder", "delay", "truncate", "corrupt"];

fn is_path_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// Whether a path such as `self.spec.tx.drop` names a fault fraction.
fn is_fraction(path: &str) -> bool {
    FRACTIONS.contains(&path.rsplit('.').next().unwrap_or(path))
}

/// The path `text` ends with.
fn ending(text: &str) -> &str {
    text.trim_end().rsplit(|c| !is_path_char(c)).next().unwrap_or("")
}

/// The path `text` starts with.
fn starting(text: &str) -> &str {
    text.trim_start().split(|c| !is_path_char(c)).next().unwrap_or("")
}

/// Whether `line` adds two fault fractions or compares something (a
/// uniform draw) with one: the makings of a cumulative fate partition.
fn partitions_fates(line: &str) -> bool {
    let after = |i: usize, op: &str| starting(&line[i + op.len()..]);
    let sums = line
        .match_indices(" + ")
        .any(|(i, op)| is_fraction(ending(&line[..i])) && is_fraction(after(i, op)));
    sums || line.match_indices(" < ").any(|(i, op)| is_fraction(after(i, op)))
}

/// Both stacks draw a packet's fate one way, `pels_netsim::faults::Fate::draw`,
/// over a partition checked one way, `validate_fractions`: a second
/// cumulative partition is how the two stacks' fault models drifted apart.
#[test]
fn one_fate_partition() {
    let found = offenders(&crate_sources(), &["crates/netsim/src/faults.rs"], partitions_fates);
    assert!(
        found.is_empty(),
        "partition fault fractions through pels_netsim::faults::Fate::draw:\n{}",
        found.join("\n")
    );
}
