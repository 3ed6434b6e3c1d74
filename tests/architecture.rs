//! Architecture gates: the non-test code of the crates may shrink, never
//! grow, and a few things exist in exactly one place.
//!
//! A file's non-test code is every line outside its top-level
//! `#[cfg(test)]` items (a test module may call what it likes): each one is
//! skipped from its attribute through its closing `}`, and shipped code
//! after it counts again. Each ratchet is the count the code stood at when
//! it was last lowered; a change that takes lines out lowers it in the same
//! change.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Non-test lines under `crates/cli/src`. Each command carries the config
/// of the library it drives, built by that library's constructor and checked
/// by its own `validate`: a restated default or a second copy of a check
/// shows up here first.
const CLI: usize = 1_151;
/// Non-test lines under `crates/bench/src`. Every table, figure and ablation
/// is a row of `pels_bench::EXPERIMENTS`, run in-process by `run_all` and by
/// `tests/experiments.rs`: a per-row printer or a second harness shows up
/// here first.
const BENCH: usize = 1_291;
/// Non-test lines under every `crates/*/src`. A knob with one value in use
/// is a named constant beside the code that reads it: a config field, its
/// default, its plumbing and its validation coming back show up here first.
const CRATES: usize = 20_181;

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

/// The lines of `path` outside its test modules, each with its line number.
/// A top-level `#[cfg(test)]` item ends at the first unindented line that
/// closes it: `}`, or an item that ends in `;`.
fn numbered_non_test_code(path: &Path) -> Vec<(usize, String)> {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut code = Vec::new();
    let mut in_test = false;
    for (i, line) in text.lines().enumerate() {
        if line.starts_with("#[cfg(test)]") {
            in_test = true;
        } else if in_test {
            let top_level = !line.starts_with(char::is_whitespace) && !line.starts_with("#[");
            in_test = !(top_level && line.ends_with(['}', ';']));
        } else {
            code.push((i + 1, line.to_string()));
        }
    }
    code
}

/// The lines of `path` outside its test modules.
fn non_test_code(path: &Path) -> Vec<String> {
    numbered_non_test_code(path).into_iter().map(|(_, line)| line).collect()
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
        for (number, line) in numbered_non_test_code(file) {
            if offends(&line) {
                found.push(format!("{}:{number}: {}", name.display(), line.trim()));
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
/// `sim::Simulator::inject` is for routing faults to their shard.
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

/// Every `.rs` file under `dir`, relative to the repository.
fn sources_under(dir: &str) -> Vec<PathBuf> {
    rust_files(&repo().join(dir), true)
}

/// The lines of `lines` from each one that starts with `start` through the
/// next one that is exactly `end`: the bodies of the items `start` opens.
fn bodies<'a>(lines: &'a [String], start: &str, end: &str) -> Vec<&'a str> {
    let mut found = Vec::new();
    let mut inside = false;
    for line in lines {
        inside |= line.starts_with(start);
        if inside {
            found.push(line.as_str());
            inside = line != end;
        }
    }
    found
}

/// Eq. 8, the fresh-epoch bookkeeping, the watchdog, the epoch filter and
/// frame planning are called from `pels_core::flow::FlowControl` and from
/// the controllers' own files, nowhere else: a second assembly in an adapter
/// is how the two stacks drifted before.
#[test]
fn the_sender_path_is_wired_once() {
    let allowed = [
        "crates/core/src/flow.rs",
        "crates/core/src/mkc.rs",
        "crates/core/src/aimd.rs",
        "crates/core/src/tfrc.rs",
        "crates/core/src/gamma.rs",
        "crates/core/src/feedback.rs",
    ];
    let calls =
        [".update_from(", ".record_fresh(", ".apply_staleness(", "EpochFilter::new", "plan_frame("];
    let found =
        offenders(&crate_sources(), &allowed, |line| calls.iter().any(|c| line.contains(c)));
    assert!(
        found.is_empty(),
        "these assemble part of the sender control path; call pels_core::flow::FlowControl:\n{}",
        found.join("\n")
    );
}

/// One receiver core, `pels_core::receiver::Reception`, keeps the frame log,
/// the NACK schedule and the delays for both stacks; the simulator's agent
/// and the wire's client only feed it. A second copy of that wiring is how
/// the two receivers drifted apart before (the wire's NACK budget was spent
/// on requests it never sent).
#[test]
fn the_receiver_path_is_wired_once() {
    let allowed = ["crates/core/src/receiver.rs", "crates/fgs/src/decoder.rs"];
    let calls = [
        "FrameLog::new",
        "NackTracker::default",
        ".due(",
        ".mark_received_sized(",
        "DelayRecorder::new",
    ];
    let found =
        offenders(&crate_sources(), &allowed, |line| calls.iter().any(|c| line.contains(c)));
    assert!(
        found.is_empty(),
        "these assemble part of the receiving path; record through pels_core::receiver::Reception:\n{}",
        found.join("\n")
    );
}

/// Whether `line` calls `ctor` as a whole word: `Router::new(` is a call in
/// `Box::new(Router::new(` and in `router::Router::new(`, not in
/// `ServeRouter::new(`.
fn calls_word(line: &str, ctor: &str) -> bool {
    line.match_indices(ctor)
        .any(|(at, _)| !line[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

/// Routers, ports, routes, endpoints and the partition graph are wired in
/// `pels_core::network`, the one builder both front-ends append their
/// models through (the dumbbell and every generated topology). Two
/// compilers of the same wiring are how the dumbbell and the topologies
/// could number ports, routes or flow ids apart.
#[test]
fn a_network_is_built_in_one_place() {
    let ctors = [
        "PelsSource::new(",
        "PelsReceiver::new(",
        "AqmRouter::try_new(",
        "Router::new(",
        "TcpSource::new(",
        "TcpSink::new(",
        "CbrSource::new(",
        "PoissonSource::new(",
    ];
    let found = offenders(&crate_sources(), &["crates/core/src/network.rs"], |line| {
        !line.trim_start().starts_with("//") && ctors.iter().any(|c| calls_word(line, c))
    });
    assert!(
        found.is_empty(),
        "agents are built by pels_core::network::Network::append; give it a model:\n{}",
        found.join("\n")
    );
}

/// `FlowControl` holds the frame being sent as its three segment byte counts
/// and a cursor, and cuts each packet when the pacer asks for it through
/// `pels_fgs::packetize::FramePackets`, the one packetization rule. A queue
/// of planned packets kept the capacity of the largest frame a flow ever
/// planned (5 KiB per `sim_shared` flow); a list from `packetize(` in a
/// sender is that queue again. `Packet::acks` was read by nothing but its
/// own test and cost every packet 16 bytes (tests/memory_budget.rs).
#[test]
fn a_frame_is_planned_not_materialised() {
    let flow = [repo().join("crates/core/src/flow.rs")];
    let mut found = offenders(&flow, &[], |line| line.contains("VecDeque<Planned>"));
    let senders = [sources_under("crates/core/src"), sources_under("crates/wire/src")].concat();
    found.extend(offenders(&senders, &[], |line| line.contains("packetize(")));
    let packet = [repo().join("crates/netsim/src/packet.rs")];
    found.extend(offenders(&packet, &[], |line| line.contains("pub acks")));
    assert!(
        found.is_empty(),
        "keep the frame as its byte counts and cut packets through FramePackets:\n{}",
        found.join("\n")
    );
}

/// The engines record every value once, in their own state. A snapshot is
/// built from that state and published in three places: `RoleIds::scrape`
/// and `flush_telemetry` (roles.rs), `ServeLoop::scrape` and its driver
/// (serve.rs), and the one-flow session that adds its receiver's and fault
/// counters (live.rs). No per-packet, per-ACK or per-tick path holds a
/// handle to write through: the per-event mirror must not come back.
#[test]
fn telemetry_is_scraped_not_pushed() {
    let engines = ["crates/netsim/src", "crates/core/src", "crates/topo/src", "crates/wire/src"]
        .map(sources_under)
        .concat();
    let mut found = offenders(&engines, &[], |line| {
        line.contains("set_telemetry") || line.contains("attach_telemetry")
    });
    let writes = [
        ".counter_add(",
        ".gauge_set(",
        ".observe(",
        ".sample(",
        ".publish(",
        ".set_gauge(",
        ".set_stat(",
        ".set_series(",
    ];
    let scrape_sites =
        ["crates/core/src/roles.rs", "crates/wire/src/serve.rs", "crates/wire/src/live.rs"];
    found.extend(offenders(&engines, &scrape_sites, |line| {
        line.contains("Snapshot") || writes.iter().any(|w| line.contains(w))
    }));
    assert!(
        found.is_empty(),
        "an engine writes telemetry outside the scrape sites; scrape its state instead:\n{}",
        found.join("\n")
    );
}

/// Eq. 11 measures the offered load: `ServeRouter::admit` is the one place
/// an arrival is counted and a drop decided, and the sender side paces by
/// its own token bucket. A pacer that holds packets back while a queue is
/// deep hides the overload from the estimator, and every flow runs away to
/// `max_rate` (crates/wire/tests/wire_budget.rs).
#[test]
fn the_pacer_never_looks_at_the_router() {
    let serve = non_test_code(&repo().join("crates/wire/src/serve.rs"));
    let arrivals = serve.iter().filter(|line| line.contains("estimator.on_arrival(")).count();
    assert_eq!(
        arrivals, 1,
        "serve.rs counts Eq. 11 arrivals in {arrivals} places, not admit's one"
    );
    let pacer =
        [bodies(&serve, "    fn on_pace(", "    }"), bodies(&serve, "    fn on_frame(", "    }")]
            .concat();
    assert!(!pacer.is_empty(), "on_pace and on_frame are where the pacer runs");
    let peeks: Vec<&str> = pacer
        .into_iter()
        .filter(|line| line.contains("queue_depth") || line.contains("router.queues"))
        .collect();
    assert!(peeks.is_empty(), "on_pace / on_frame read the router's queues:\n{}", peeks.join("\n"));
}

/// The shared router queues plans (`Departure`, 64 bytes), and
/// `ServeRouter::drain` encodes each packet as it leaves, with the label and
/// rate of that moment, into the container `transport::Outbox` builds. A
/// second `WireData` literal in serve.rs is a packet encoded before it is
/// due; a byte buffer in the router is a queue of encodings; a second
/// comparison with the container cap is a second container builder.
#[test]
fn a_packet_is_encoded_once_at_departure() {
    let serve = non_test_code(&repo().join("crates/wire/src/serve.rs"));
    let literal = |line: &str| line.contains("WireData {");
    let everywhere = serve.iter().filter(|line| literal(line)).count();
    let in_drain =
        bodies(&serve, "    fn drain(", "    }").into_iter().filter(|l| literal(l)).count();
    assert_eq!(
        (everywhere, in_drain),
        (1, 1),
        "serve.rs builds {everywhere} data packets ({in_drain} in ServeRouter::drain); drain builds the only one"
    );
    let router = bodies(&serve, "struct ServeRouter {", "}");
    assert!(!router.is_empty() && !router.iter().any(|line| line.contains("Vec<u8>")));
    let wire = rust_files(&repo().join("crates/wire/src"), false);
    let caps =
        offenders(&wire, &[], |line| line.contains("len()") && line.contains("AGGREGATE_BYTES"));
    assert!(
        caps.len() == 1 && caps[0].starts_with("crates/wire/src/transport.rs:"),
        "compare the container cap with a length in transport::Outbox::push only:\n{}",
        caps.join("\n")
    );
}

/// The `pub` items under `crates/*/src` that no shipped code calls, by
/// `crate::module::name` (`crate::module::Type::name` for an item of an
/// `impl`, a field or a trait method), each with the test that keeps it.
/// Everything else a crate exports has a caller outside tests and examples.
const ALLOWED: &[(&str, &str)] = &[
    (
        "analysis::lossmodel::BurstStats::pmf",
        "the empirical burst PMF lossmodel::tests hold against geometric_burst_pmf",
    ),
    (
        "analysis::lossmodel::BurstStats::geometric_ratio",
        "tests/model_vs_simulation.rs fits its uniform-loss queue's bursts with it",
    ),
    (
        "analysis::lossmodel::geometric_burst_pmf",
        "lossmodel::tests hold both loss channels' burst PMFs against it",
    ),
    (
        "analysis::queueing::utilization",
        "tests/simulator_calibration.rs loads its Poisson-fed port to a ρ computed with it",
    ),
    (
        "analysis::queueing::mg1_mean_wait",
        "md1_mean_sojourn's Pollaczek–Khinchine wait, which tests/simulator_calibration.rs holds",
    ),
    (
        "analysis::queueing::mm1_mean_sojourn",
        "queueing::tests hold md1_mean_sojourn and mm1_mean_in_system against it",
    ),
    (
        "analysis::queueing::mm1_mean_in_system",
        "tests/simulator_calibration.rs holds a Poisson-fed port against it",
    ),
    (
        "analysis::queueing::md1_mean_sojourn",
        "tests/simulator_calibration.rs holds a Poisson-fed port against it",
    ),
    (
        "analysis::stability::mkc_stationary_loss",
        "stability::tests hold mkc_simulate's loss tail against it (Lemma 6)",
    ),
    (
        "analysis::useful::expected_useful_general",
        "tests/model_vs_simulation.rs holds the decoder on variable frames against it (Lemma 1)",
    ),
    (
        "core::gamma::GammaController::fixed_point",
        "gamma::tests hold the converged γ against it (Lemma 4)",
    ),
    (
        "core::router::AqmRouter::no_route_drops",
        "a packet with no route is dropped and counted, not a panic: router::tests",
    ),
    (
        "core::source::PelsSource::starved_frames",
        "source::tests::starves_after_patience_and_resumes_on_negative_price sees frames starved",
    ),
    (
        "core::source::PelsSource::starve_events",
        "source::tests::starves_after_patience_and_resumes_on_negative_price counts one episode",
    ),
    (
        "core::scenario::chained_proportional_config",
        "tests/report_digests.rs and tests/parallel_determinism.rs pin its reports",
    ),
    (
        "fgs::decoder::FrameReception::from_plan",
        "tests/model_vs_simulation.rs decodes planned frames through a Bernoulli channel with it",
    ),
    (
        "fgs::decoder::FrameLog::CHUNK_BYTES",
        "decoder::tests and crates/wire/tests/untrusted_frames.rs bound a FrameLog's bytes by it",
    ),
    (
        "fgs::frame::foreman",
        "the paper's CIF Foreman profile: frame::tests pin it, core::source's tests stream it",
    ),
    ("fgs::gop::expected_decodable_fraction", "gop::tests hold propagate_base_loss against it"),
    (
        "netsim::sim::Context::deliver",
        "the port-less delivery the netsim tests' and doc examples' agents are built on",
    ),
    (
        "netsim::router::Router::no_route_drops",
        "router::tests::unroutable_packets_are_counted: a packet with no route is dropped, counted",
    ),
    (
        "netsim::time::Rate::from_kbps",
        "the kb/s constructor the mkc, flow, source, tcp, time and serve tests set rates with",
    ),
    (
        "netsim::tcp::TcpSource::fast_retransmits",
        "tcp::tests::recovers_from_loss_with_fast_retransmit sees Reno's fast retransmit by it",
    ),
    (
        "netsim::shard::ShardedSimulator::cross_spills",
        "tests/exchange_budget.rs bounds the cross-shard arrivals that miss the lane by it",
    ),
    (
        "telemetry::sink::MemorySink",
        "the in-memory sink the telemetry, core and wire tests attach to read back what a \
         run published",
    ),
    (
        "netsim::stats::Summary::variance",
        "stats::tests check through it the Welford m2 every telemetry summary serializes",
    ),
];

/// The name after `fn`, `struct`, `enum`, `trait`, `type`, `const`, `static`
/// or `mod` at the start of `rest` (`const fn` is a fn).
fn item_name(rest: &str) -> Option<&str> {
    let kinds =
        ["const fn ", "fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ", "mod "];
    let rest = kinds.iter().find_map(|kind| rest.strip_prefix(kind))?;
    let end = rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The item a line defines when it is a plain `pub` item: the name after
/// `pub fn`, `pub struct`, `pub enum`, `pub trait`, `pub type`, `pub const`,
/// `pub static` or `pub mod` (`pub const fn` is a fn).
fn pub_item(line: &str) -> Option<&str> {
    item_name(line.trim_start().strip_prefix("pub ")?)
}

/// The item a line defines whatever its visibility: a method declared
/// under the name of the item it wraps does not call that item.
fn declared_item(line: &str) -> Option<&str> {
    let code = line.trim_start();
    let rest = match code.strip_prefix("pub(") {
        Some(scoped) => scoped.split_once(") ")?.1,
        None => code.strip_prefix("pub ").unwrap_or(code),
    };
    item_name(rest)
}

/// The `pub fn` a line opens: the calls in its body count once it is live.
fn pub_fn(line: &str) -> Option<&str> {
    let code = line.trim_start();
    let is_fn = code.starts_with("pub fn ") || code.starts_with("pub const fn ");
    pub_item(line).filter(|_| is_fn)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// A line that can call an item: the `pub fn` whose body it is in, if any,
/// the type whose `impl` block it is in, if any, and its text.
struct Caller {
    within: Option<String>,
    impl_of: Option<String>,
    text: String,
}

/// The type an `impl` line is for: `Wrr` in `impl Discipline for Wrr {` and
/// in `impl<T: Clock> Wrr<T> {`.
fn impl_type(line: &str) -> Option<&str> {
    let mut rest = line.trim_start().strip_prefix("impl")?;
    if let Some(generics) = rest.strip_prefix('<') {
        let mut depth = 1;
        let close = generics.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &generics[close + 1..];
    }
    let target = rest.strip_prefix(' ')?.rsplit(" for ").next()?;
    let path = target.split(|c: char| !is_ident_char(c) && c != ':').next()?;
    path.rsplit("::").next().filter(|name| !name.is_empty())
}

/// The words `line` uses: each whole word bar a field read (`.name` with no
/// call or path after it) and a field, initialiser or binding (`name:`).
/// A field of a `pub fn`'s name does not keep it alive.
fn uses(line: &str) -> Vec<&str> {
    let mut words = Vec::new();
    let mut start = None;
    for (at, c) in line.char_indices().chain([(line.len(), ' ')]) {
        match (start, is_ident_char(c)) {
            (None, true) => start = Some(at),
            (Some(from), false) => {
                start = None;
                let (before, after) = (&line[..from], &line[at..]);
                let field_read = before.ends_with('.')
                    && !before.ends_with("..")
                    && !after.starts_with(['(', ':']);
                let named_field = after.starts_with(':') && !after.starts_with("::");
                if !field_read && !named_field {
                    words.push(&line[from..at]);
                }
            }
            _ => {}
        }
    }
    words
}

/// Whether `line` calls a method `name`: `.name(` or a `::name` path.
fn calls_method(line: &str, name: &str) -> bool {
    line.match_indices(name).any(|(at, _)| {
        let (before, after) = (&line[..at], &line[at + name.len()..]);
        let method = before.ends_with('.') && after.starts_with('(');
        method || before.ends_with("::") && !after.starts_with(is_ident_char)
    })
}

/// The lines of `file` that can call an item: its non-test code without
/// comments and without `pub use` re-exports (a re-export calls nothing;
/// rustc already flags a plain `use` that nothing reads).
fn calling_lines(file: &Path) -> Vec<Caller> {
    let mut lines = Vec::new();
    let mut in_reexport = false;
    // The `pub fn` being read and the line that closes its body.
    let mut within: Option<(String, String)> = None;
    // The type whose `impl` block is being read and the line that closes it.
    let mut impl_of: Option<(String, String)> = None;
    for line in non_test_code(file) {
        if impl_of.is_none() {
            impl_of = impl_type(&line).map(|name| {
                let indent = &line[..line.len() - line.trim_start().len()];
                (name.to_string(), format!("{indent}}}"))
            });
        }
        let implemented = impl_of.as_ref().map(|(name, _)| name.clone());
        // A block ends at the brace at its `impl`'s indentation, or on the
        // `impl`'s own line when the block is empty (`impl Error for E {}`).
        let one_line = impl_type(&line).is_some() && line.trim_end().ends_with('}');
        if one_line || impl_of.as_ref().is_some_and(|(_, end)| *end == line) {
            impl_of = None;
        }
        if within.is_none() {
            within = pub_fn(&line).map(|name| {
                let indent = &line[..line.len() - line.trim_start().len()];
                (name.to_string(), format!("{indent}}}"))
            });
        }
        let enclosing = within.as_ref().map(|(name, _)| name.clone());
        // A body ends at the brace at its `pub fn`'s indentation, or on the
        // `pub fn`'s own line when the whole fn is one line.
        let one_line = pub_fn(&line).is_some() && line.trim_end().ends_with(['}', ';']);
        if one_line || within.as_ref().is_some_and(|(_, end)| *end == line) {
            within = None;
        }
        let code = line.trim_start();
        if in_reexport || code.starts_with("pub use ") {
            in_reexport = !code.contains(';');
        } else if !code.starts_with("//") {
            lines.push(Caller { within: enclosing, impl_of: implemented, text: line });
        }
    }
    lines
}

/// `crate::module::name` for an item defined in `file` under
/// `crates/<crate>/src` (a crate root adds no module), with the type first
/// for an item of an `impl` block: `crate::module::Type::name`.
fn item_path(file: &Path, name: &str) -> String {
    let rel = file.strip_prefix(repo().join("crates")).expect("under crates/");
    let krate = rel.iter().next().expect("a crate directory").to_string_lossy();
    let module = file.file_stem().expect("a file name").to_string_lossy();
    match module.as_ref() {
        "lib" | "main" => format!("{krate}::{name}"),
        module => format!("{krate}::{module}::{name}"),
    }
}

/// The `pub` fields of the `pub` structs in `file` that derive neither
/// `Serialize` nor `Deserialize` (a serialized field is read by its
/// report), as `(struct, field)`.
fn plain_pub_fields(file: &Path) -> Vec<(String, String)> {
    let mut fields = Vec::new();
    // The attributes and doc comments above the current line.
    let (mut attrs, mut attr_open) = (String::new(), false);
    // The struct being read and the line that closes it.
    let mut inside: Option<(String, String)> = None;
    for line in non_test_code(file) {
        let code = line.trim_start();
        if let Some((name, end)) = &inside {
            if *end == line {
                inside = None;
            } else if let Some(rest) = code.strip_prefix("pub ") {
                let field = &rest[..rest.find(|c: char| !is_ident_char(c)).unwrap_or(rest.len())];
                if !field.is_empty() && rest[field.len()..].starts_with(": ") {
                    fields.push((name.clone(), field.to_string()));
                }
            }
            continue;
        }
        if attr_open || code.starts_with("#[") || code.starts_with("///") {
            attrs.push_str(code);
            attr_open = (attr_open || code.starts_with("#[")) && !code.ends_with(']');
            continue;
        }
        let serde = attrs.contains("Serialize") || attrs.contains("Deserialize");
        attrs.clear();
        if let Some(name) = pub_item(&line).filter(|_| code.starts_with("pub struct ")) {
            if !serde && code.ends_with('{') {
                let indent = &line[..line.len() - code.len()];
                inside = Some((name.to_string(), format!("{indent}}}")));
            }
        }
    }
    fields
}

/// The methods the `pub` traits in `file` declare, as `(trait, method)`.
fn trait_methods(file: &Path) -> Vec<(String, String)> {
    let mut methods = Vec::new();
    // The trait being read and the line that closes it.
    let mut inside: Option<(String, String)> = None;
    for line in non_test_code(file) {
        let code = line.trim_start();
        if let Some((name, end)) = &inside {
            if *end == line {
                inside = None;
            } else if let Some(method) = item_name(code).filter(|_| code.starts_with("fn ")) {
                methods.push((name.clone(), method.to_string()));
            }
        } else if let Some(name) = pub_item(&line).filter(|_| code.starts_with("pub trait ")) {
            let indent = &line[..line.len() - code.len()];
            inside = Some((name.to_string(), format!("{indent}}}")));
        }
    }
    methods
}

/// Whether `line` reads a field called `field`: it names it as a whole word
/// that is not an initialiser (`field:`), an assignment target (`field =`,
/// `+=`, `-=`) or a call of something else of that name (`field(`).
fn reads_field(line: &str, field: &str) -> bool {
    line.match_indices(field).any(|(at, _)| {
        let whole = !line[..at].ends_with(is_ident_char)
            && !line[at + field.len()..].starts_with(is_ident_char);
        let after = line[at + field.len()..].trim_start();
        let initialiser = after.starts_with(':') && !after.starts_with("::");
        let assigned = ["+=", "-="].iter().any(|op| after.starts_with(op))
            || after.starts_with('=') && !after.starts_with("==") && !after.starts_with("=>");
        whole && !initialiser && !assigned && !after.starts_with('(')
    })
}

/// A `pub` item that only tests and examples call is machinery the system
/// ships without using: it goes, moves into the test that uses it, or stays
/// in [`ALLOWED`] with the test that keeps it. An item is live when a line
/// of non-test code under `crates/*/src`, `src/` or `benchmark/src` (the
/// benchmark's aliases are live until the benchmark stops calling them)
/// uses its name as a whole word, where:
/// - a line that declares an item of that name does not use it, and a line
///   of a type's own `impl` block does not use the type;
/// - a field read (`.name` with no call) and a field, initialiser or
///   binding (`name:`) are not uses: only a call keeps a `pub fn` alive;
/// - inside the body of a `pub fn`, a line counts only once that `pub fn`
///   is itself live: a wrapper of the same name, or one only tests call,
///   keeps nothing alive.
///
/// A `pub` field of a struct that is not serialized is live when such a
/// line reads it, and a method a `pub` trait declares when such a line
/// calls it (`.name(` or a `::name` path).
#[test]
fn nothing_ships_that_only_a_test_calls() {
    let callers: Vec<Caller> =
        [crate_sources(), sources_under("src"), sources_under("benchmark/src")]
            .concat()
            .iter()
            .flat_map(|file| calling_lines(file))
            .collect();
    // The words each calling line uses, bar the item it declares and the
    // type whose `impl` block it is in.
    let named: Vec<Vec<&str>> = callers
        .iter()
        .map(|caller| {
            let declared = declared_item(&caller.text);
            let mut words: Vec<&str> = uses(&caller.text)
                .into_iter()
                .filter(|w| Some(*w) != declared && Some(*w) != caller.impl_of.as_deref())
                .collect();
            words.sort_unstable();
            words.dedup();
            words
        })
        .collect();
    // The least fixed point: a body counts once its `pub fn` is live.
    let counts = |live: &HashSet<&str>, caller: &Caller| {
        caller.within.as_deref().is_none_or(|f| live.contains(f))
    };
    let mut live = HashSet::<&str>::new();
    loop {
        let before = live.len();
        for (caller, words) in callers.iter().zip(&named) {
            if counts(&live, caller) {
                live.extend(words);
            }
        }
        if live.len() == before {
            break;
        }
    }
    let mut dead = Vec::new();
    for file in crate_sources() {
        for line in calling_lines(&file) {
            let Some(name) = pub_item(&line.text).filter(|name| !live.contains(name)) else {
                continue;
            };
            let name = line.impl_of.map_or(name.to_string(), |owner| format!("{owner}::{name}"));
            dead.push(item_path(&file, &name));
        }
        for (owner, method) in trait_methods(&file) {
            let called = callers
                .iter()
                .any(|caller| counts(&live, caller) && calls_method(&caller.text, &method));
            if !called {
                dead.push(item_path(&file, &format!("{owner}::{method}")));
            }
        }
        for (owner, field) in plain_pub_fields(&file) {
            let read = callers
                .iter()
                .any(|caller| counts(&live, caller) && reads_field(&caller.text, &field));
            if !read {
                dead.push(item_path(&file, &format!("{owner}::{field}")));
            }
        }
    }
    let unlisted: Vec<&String> =
        dead.iter().filter(|d| !ALLOWED.iter().any(|(path, _)| path == d)).collect();
    let stale: Vec<&str> = ALLOWED
        .iter()
        .map(|(path, _)| *path)
        .filter(|path| !dead.iter().any(|d| d == path))
        .collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "pub items only tests call (delete them, move them into their test, or list them with \
         a reason): {unlisted:?}\nALLOWED entries that are live again or gone: {stale:?}"
    );
    assert!(ALLOWED.iter().all(|(_, reason)| !reason.is_empty()));
}
