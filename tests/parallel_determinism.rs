//! Bit-stable parallel execution (DESIGN.md, "Sharded execution").
//!
//! The sharded engine's contract is determinism by construction: the
//! partition — and therefore the per-shard event schedule — is a pure
//! function of the topology, and the worker count only sizes the thread
//! pool. These tests pin that contract end to end, at the level a user
//! observes it: the serialized `ScenarioReport` must be byte-identical
//! across worker counts, across repeated runs, and (for component
//! partitions, which never exchange events) against the serial engine.

use pels_core::parallel::ParallelScenario;
use pels_core::scenario::{chained_proportional_config, pels_flows, Scenario, ScenarioConfig};
use pels_netsim::time::SimTime;

const N: usize = 32;
const HORIZON_S: f64 = 5.0;

fn report_json(cfg: ScenarioConfig, workers: usize) -> String {
    let mut s = ParallelScenario::build(cfg);
    s.set_workers(workers);
    s.run_until(SimTime::from_secs_f64(HORIZON_S));
    serde_json::to_string(&s.report()).expect("report serializes")
}

/// The fixed shared dumbbell: one bottleneck, so the partitioner falls
/// back to the delay-cut (2 shards) and the conservative windowed
/// executor runs with barriers. Reports must not depend on the worker
/// count.
#[test]
fn fixed_dumbbell_reports_are_worker_invariant() {
    let cfg = || ScenarioConfig {
        flows: pels_flows(&[0.0; N]),
        keep_series: false,
        ..Default::default()
    };
    let baseline = report_json(cfg(), 1);
    for workers in [2, 8] {
        let r = report_json(cfg(), workers);
        assert_eq!(baseline, r, "fixed dumbbell: workers=1 vs workers={workers}");
    }
}

/// The chained proportional topology decomposes into N components, one
/// shard each — the maximally parallel shape. Still byte-identical at
/// every worker count.
#[test]
fn chained_topology_reports_are_worker_invariant() {
    let baseline = report_json(chained_proportional_config(N), 1);
    for workers in [2, 8] {
        let r = report_json(chained_proportional_config(N), workers);
        assert_eq!(baseline, r, "chained: workers=1 vs workers={workers}");
    }
}

/// Running the same config twice at the same worker count must also be
/// stable — no wall-clock, thread-id, or iteration-order leakage into
/// results.
#[test]
fn repeated_runs_are_bit_stable() {
    assert_eq!(
        report_json(chained_proportional_config(N), 8),
        report_json(chained_proportional_config(N), 8),
        "chained repeat at workers=8"
    );
    let cfg = || ScenarioConfig {
        flows: pels_flows(&[0.0; 4]),
        keep_series: false,
        ..Default::default()
    };
    assert_eq!(report_json(cfg(), 2), report_json(cfg(), 2), "dumbbell repeat at workers=2");
}

/// Component partitions never exchange cross-shard events, so each shard
/// replays exactly the schedule the serial engine would give that
/// component — the parallel report must match the serial `Scenario`
/// byte for byte.
#[test]
fn chained_parallel_matches_serial_engine() {
    let mut serial = Scenario::build(chained_proportional_config(N));
    serial.run_until(SimTime::from_secs_f64(HORIZON_S));
    let serial_json = serde_json::to_string(&serial.report()).expect("report serializes");
    assert_eq!(serial_json, report_json(chained_proportional_config(N), 8));
}

/// The shared dumbbell exercises the windowed executor's batched drain
/// and cross-shard merge: the `(time, src_shard, seq)` merge order must
/// reproduce the serial engine byte for byte at every worker count.
#[test]
fn shared_dumbbell_parallel_matches_serial_engine() {
    let cfg = || ScenarioConfig {
        flows: pels_flows(&[0.0; N]),
        keep_series: false,
        ..Default::default()
    };
    let mut serial = Scenario::build(cfg());
    serial.run_until(SimTime::from_secs_f64(HORIZON_S));
    let serial_json = serde_json::to_string(&serial.report()).expect("report serializes");
    for workers in [1, 2, 8] {
        assert_eq!(
            serial_json,
            report_json(cfg(), workers),
            "shared dumbbell: serial vs workers={workers}"
        );
    }
}
