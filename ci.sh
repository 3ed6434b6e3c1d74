#!/usr/bin/env bash
# Local CI gate: build, tests, lints, formatting. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release --workspace =="
cargo build --release --workspace

echo "== benchmark package check (out-of-workspace consumer of pels-wire) =="
# benchmark/ is its own package: a break in the crate APIs it compiles
# against passes every workspace gate. Its tests reach `Scenario` through
# the `pels_core::parallel::ParallelScenario` re-export.
cargo check --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --release --offline --locked --manifest-path benchmark/Cargo.toml

echo "== benchmark smoke (benchmark/run.sh --smoke) =="
# ~9 s: digests equal at 1 vs 2 workers and run to run, five workloads on
# both stacks, the correctness gate, the tree left as found. Numbers worth
# quoting come from the full `benchmark/run.sh` and its `--compare`.
bash benchmark/run.sh --smoke

echo "== binary provenance gate (embedded commit vs HEAD) =="
# Stale target/release binaries have survived rebuilds on some hosts;
# refuse to record any result with a binary built from another commit.
bin_version="$(./target/release/pels version)"
head_commit="$(git rev-parse HEAD)"
case "$bin_version" in
  *"commit $head_commit"*) echo "$bin_version" ;;
  *) echo "stale binary: '$bin_version' does not embed HEAD $head_commit" >&2
     exit 1 ;;
esac

echo "== docs name no removed flag, command or file =="
# Spelled in halves so this file does not match itself.
for gone in -"-no-batch" -"-batch-size" -"-ack-every" \
    "pels be""nch " BENCH_"scale" BENCH_"wire" PELS_"BENCH_DIR" crit"erion" Crit"erion" \
    W"fq" W"FQ" ADMIT_"HIGH_WATER" patch_"feedback" patch_"rate_echo" \
    -"-bin fig" -"-bin table1" -"-bin ablation_"; do
  if grep -n -e "$gone" README.md DESIGN.md EXPERIMENTS.md; then
    echo "the docs still mention the removed $gone" >&2; exit 1
  fi
done

echo "== docs build without a warning (broken or private intra-doc links) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

# The architecture gates (tests/architecture.rs) read what a file ships: all
# but its top-level `#[cfg(test)]` items. They are the line ratchets, the
# netsim gates (one tx-complete site, the lane, one fate partition), sender
# and receiver paths and the network wired once, the frame planned not
# materialised, telemetry scraped, the pacer blind to the router, packets
# encoded at departure, and no `pub` item, field or trait method only tests
# use. tests/experiments.rs checks results/chaos.csv. Every report's
# determinism is tier-1 too: `live::tests::memory_run_is_deterministic`,
# `wire::chaos::tests::matrix_is_deterministic`, byte_identity.rs, and worker
# counts in report_digests.rs, parallel_determinism.rs and the topo tests.

echo "== cargo test (workspace) =="
# --workspace: the root package's `cargo test` alone skips the member
# crates' unit tests. Tests pick their output directories by argument;
# anything they change in the tree (a results/ CSV, say) is a hermeticity
# bug. byte_identity.rs pins the `pels` binary's output per subcommand, and
# tests/experiments.rs compares every row's files with results/.
# Compared before/after so the gate also works on uncommitted work; on a
# clean checkout it is exactly "git status --porcelain prints nothing".
tree_state() { git status --porcelain; git diff | cksum; }
before_tests="$(tree_state)"
cargo test -q --workspace
[ "$(tree_state)" = "$before_tests" ] || {
  echo "cargo test changed the working tree:" >&2; git status --porcelain >&2; exit 1; }

echo "== memory budget (live heap per flow, optimised layout) =="
# tests/memory_budget.rs counts live heap with its own allocator: a chained
# flow must stay under its budget at 30 simulated seconds and grow no
# faster than 64-byte frame records explain, and a flow of the shared
# dumbbell (256 flows, 9 s) under its own. The workspace run above checks
# the debug build; this is the layout benchmark/'s rss_kb_per_flow measures.
cargo test -q --release --test memory_budget

echo "== report digests, event budget and exchange budget (optimised build) =="
# tests/report_digests.rs pins ten small reports (three set every option
# the network builder carries, on both layouts);
# tests/event_budget.rs holds events per bottleneck packet at or under 9;
# tests/exchange_budget.rs pins a cut dumbbell's event, cross-event and
# barrier counts and bounds the arrivals that miss the lane. A report must
# not depend on the profile, and release is what the benchmark runs.
cargo test -q --release --test report_digests --test event_budget --test exchange_budget
cargo test -q --release -p pels-cli --test byte_identity
# The wire's counterparts. crates/wire/tests/wire_budget.rs: 64 and 512
# paced flows on a stepped clock sit on Lemma 6 with only red shed, and the
# 64-flow run's packet, timer-event, abandon, drop, container and
# send_batch counts are pinned. crates/wire/tests/serve_memory.rs (ignored
# in the debug run above): the serve loop's live heap per flow at 512
# flows, under its budget at 10 s and flat from 60 s to 90 s.
cargo test -q --release -p pels-wire --test wire_budget --test serve_memory

echo "== pels live smoke (loopback UDP, 2 s) =="
# Scratch results dir: the smoke must not clobber the checked-in
# results/live.csv artifact (results/ is tracked in git).
live_dir="$(mktemp -d -t pels_live_XXXXXX)"
trap 'rm -rf "$live_dir"' EXIT
PELS_RESULTS_DIR="$live_dir" timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  live --duration 2

echo "== pels run telemetry smoke (JSON-lines stream) =="
tel_file="$(mktemp -t pels_telemetry_XXXXXX.jsonl)"
trap 'rm -rf "$live_dir"; rm -f "$tel_file"' EXIT
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  run --flows 2 --duration 5 --telemetry "$tel_file" > /dev/null
test -s "$tel_file" || { echo "telemetry stream is empty" >&2; exit 1; }
# `pels metrics` fails unless every line parses as a snapshot.
metrics_out="$(timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  metrics "$tel_file")"
printf '%s\n' "$metrics_out" | head -n 3
# Only the line that ends a run carries histograms and series, so the file
# is linear in the run: at most twice its last line (it was 15x, each line
# repeating every series so far).
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  run --flows 64 --duration 30 --telemetry "$tel_file" > /dev/null
tel_bytes="$(wc -c < "$tel_file")"
last_bytes="$(tail -n 1 "$tel_file" | wc -c)"
[ "$tel_bytes" -le $((2 * last_bytes)) ] || {
  echo "telemetry file is $tel_bytes bytes, over twice its $last_bytes-byte last line" >&2; exit 1; }

echo "== pels serve loopback smoke (256 flows, 2 s loadgen) =="
scratch_dir="$(mktemp -d -t pels_ci_XXXXXX)"
trap 'rm -rf "$live_dir"; rm -f "$tel_file"; rm -rf "$scratch_dir"' EXIT
# A real serve+loadgen pair over loopback UDP: every flow registers,
# streams paced data, and says BYE. Gates: zero decode errors on the
# serve socket, zero leaked flow-table entries after teardown, and — the
# loadgen never NACKs — not one repair sent or refused. The server's
# driver scrapes the loop into the telemetry file once a second and at
# exit: the last scrape must be the report, and the last periodic one must
# carry the flow-table gauges an operator watches for a runaway.
serve_json="$scratch_dir/serve.json"
serve_log="$scratch_dir/serve.log"
serve_tel="$scratch_dir/serve.jsonl"
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  serve --listen 127.0.0.1:0 --duration 8 --telemetry "$serve_tel" --json \
  > "$serve_json" 2> "$serve_log" &
serve_pid=$!
serve_addr=""
for _ in $(seq 1 100); do
  serve_addr="$(sed -n 's/^pels serve: listening on //p' "$serve_log" | head -n 1)"
  [ -n "$serve_addr" ] && break
  sleep 0.1
done
[ -n "$serve_addr" ] || { echo "serve never announced its address" >&2; exit 1; }
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  loadgen --server "$serve_addr" --flows 256 --duration 2 --warmup 1 --json \
  > "$scratch_dir/loadgen.json"
wait "$serve_pid"
timeout 120 cargo run --release -q -p pels-cli --bin pels -- \
  metrics "$serve_tel" > "$scratch_dir/serve_metrics.txt"
python3 - "$serve_json" "$scratch_dir/loadgen.json" "$scratch_dir/serve_metrics.txt" \
    "$serve_tel" <<'PY'
import json, sys
serve = json.load(open(sys.argv[1]))
lg = json.load(open(sys.argv[2]))
metrics = dict(line.split()[:2] for line in open(sys.argv[3]) if line.startswith("  wire."))
periodic = json.loads(open(sys.argv[4]).read().splitlines()[-2])["snapshot"]["gauges"]
problems = []
for gauge in ("rate_mean", "gamma_mean", "flows_at_max_rate"):
    if f"wire.serve.{gauge}" not in periodic or f"wire.serve.{gauge}" not in metrics:
        problems.append(f"wire.serve.{gauge} missing from the last periodic scrape "
                        "or from `pels metrics`")
if serve["acks"] == 0 or metrics.get("wire.serve.acks") != str(serve["acks"]):
    problems.append(f"last scrape has wire.serve.acks {metrics.get('wire.serve.acks')}, "
                    f"the report {serve['acks']} acks")
if serve["decode_errors"] != 0:
    problems.append(f"serve saw {serve['decode_errors']} decode errors")
if serve["leaked_flows"] != 0:
    problems.append(f"serve leaked {serve['leaked_flows']} flow-table entries")
if serve["retransmissions"] != 0 or serve["nacks_ignored"] != 0:
    problems.append(f"serve repaired {serve['retransmissions']} packets and refused "
                    f"{serve['nacks_ignored']} NACKs with a NACK-free client")
if serve["peak_flows"] < 256:
    problems.append(f"serve peaked at {serve['peak_flows']}/256 flows")
if lg["data_received"] == 0:
    problems.append("loadgen received no data")
if lg["flows_sustained"] != 256:
    problems.append(f"loadgen sustained {lg['flows_sustained']}/256 flows")
if problems:
    sys.exit("serve smoke failed: " + "; ".join(problems))
print(f"serve smoke ok: peak {serve['peak_flows']} flows, "
      f"{lg['data_received']} datagrams delivered, "
      f"p99 pacing jitter {serve['pacing_jitter_p99_us']:.0f} us")
PY

echo "== topo generator property tests =="
cargo test -q -p pels-topo

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "CI OK"
