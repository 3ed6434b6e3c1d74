//! One answer per (config, seed) (DESIGN.md, "Sharded execution").
//!
//! `Scenario::build` partitions the dumbbell's link graph and runs the
//! shards on however many workers it is given. Neither choice may show in
//! a result: the partition is a function of the topology, every agent
//! draws from its own stream, and the worker count only sizes the thread
//! pool. These tests pin that at the level a user observes it — the
//! serialized `ScenarioReport` must be byte-identical to the reference
//! (the same agents as one shard on one event queue, via the constructor
//! that takes an explicit partition) at every worker count, and across
//! repeated runs.

use pels_core::chaos::{schedule_for, ChaosCase, ChaosConfig};
use pels_core::scenario::{
    chained_proportional_config, pels_flows, to_best_effort, Scenario, ScenarioConfig,
};
use pels_netsim::faults::{FaultSchedule, FaultWindow};
use pels_netsim::shard::Partition;
use pels_netsim::time::SimTime;

const N: usize = 32;
const HORIZON_S: f64 = 5.0;

fn finish(mut s: Scenario, workers: usize, faults: Option<&FaultSchedule>) -> String {
    s.set_workers(workers);
    if let Some(schedule) = faults {
        s.sim.install_faults(schedule).expect("valid schedule");
    }
    s.run_until(SimTime::from_secs_f64(HORIZON_S));
    serde_json::to_string(&s.report()).expect("report serializes")
}

fn report_json(cfg: ScenarioConfig, workers: usize) -> String {
    finish(Scenario::build(cfg), workers, None)
}

/// The serial reference must equal `Scenario::build` at workers 1, 2, 8.
fn assert_matches_serial_reference(
    what: &str,
    cfg: &ScenarioConfig,
    shards: usize,
    faults: Option<&FaultSchedule>,
) {
    let serial = |g: &pels_netsim::shard::TopologyGraph| Partition::serial(g.n_agents());
    let reference = Scenario::try_build_partitioned(cfg.clone(), serial).expect("valid config");
    assert_eq!(reference.sim.n_shards(), 1);
    let reference = finish(reference, 1, faults);
    for workers in [1, 2, 8] {
        let s = Scenario::build(cfg.clone());
        assert_eq!(s.sim.n_shards(), shards, "{what}: what Partition::auto picks");
        assert_eq!(reference, finish(s, workers, faults), "{what}: serial vs workers={workers}");
    }
}

fn shared_dumbbell(n: usize) -> ScenarioConfig {
    ScenarioConfig { flows: pels_flows(&vec![0.0; n]), keep_series: false, ..Default::default() }
}

/// The fixed shared dumbbell: one bottleneck, so the partitioner falls
/// back to the delay-cut (2 shards) and the conservative windowed
/// executor runs with barriers. Reports must not depend on the worker
/// count.
#[test]
fn fixed_dumbbell_reports_are_worker_invariant() {
    let baseline = report_json(shared_dumbbell(N), 1);
    for workers in [2, 8] {
        let r = report_json(shared_dumbbell(N), workers);
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

/// A scrape reads engine state and nothing else, so the full snapshot —
/// every counter, distribution and kept series of every agent — is as
/// worker-invariant as the report: across the cut of the shared dumbbell and
/// over one shard per chain.
#[test]
fn scraped_snapshots_are_worker_invariant() {
    let scrape_json = |mut cfg: ScenarioConfig, workers: usize| {
        cfg.keep_series = true;
        let mut s = Scenario::build(cfg);
        s.set_workers(workers);
        s.run_until(SimTime::from_secs_f64(HORIZON_S));
        let snap = s.ids.scrape(&s.sim, true);
        assert!(snap.series.len() >= 6 * s.config().flows.len(), "series are kept and scraped");
        serde_json::to_string(&snap).expect("snapshot serializes")
    };
    for (what, cfg) in
        [("cut dumbbell", shared_dumbbell(8)), ("chained", chained_proportional_config(8))]
    {
        assert_eq!(scrape_json(cfg.clone(), 1), scrape_json(cfg, 2), "{what}: workers 1 vs 2");
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
    assert_eq!(
        report_json(shared_dumbbell(4), 2),
        report_json(shared_dumbbell(4), 2),
        "dumbbell repeat at workers=2"
    );
}

/// Component partitions never exchange cross-shard events, so each shard
/// replays exactly the schedule the one-queue run gives that component.
#[test]
fn chained_parallel_matches_serial_engine() {
    assert_matches_serial_reference("chained", &chained_proportional_config(N), N, None);
}

/// The shared dumbbell exercises the windowed executor's batched drain
/// and cross-shard merge: the `(time, src_shard, seq)` merge order must
/// reproduce the one-queue run byte for byte at every worker count.
#[test]
fn shared_dumbbell_parallel_matches_serial_engine() {
    assert_matches_serial_reference("shared dumbbell", &shared_dumbbell(N), 2, None);
}

/// Best-effort mode draws a uniform number per FGS packet at R1. R1 draws
/// from its own stream, so the drops — and everything downstream of them
/// — are the same whichever shard R1 lands in.
#[test]
fn best_effort_draws_do_not_see_the_partition() {
    let cfg = to_best_effort(shared_dumbbell(4));
    assert_matches_serial_reference("best-effort dumbbell", &cfg, 2, None);
    let report: pels_core::ScenarioReport =
        serde_json::from_str(&report_json(cfg, 1)).expect("report parses");
    assert!(report.random_drops > 0, "the configuration must actually draw");
}

/// The chaos matrix's `feedback-mangling` schedule: the engine draws once
/// per arriving ACK while the policy is in force, from the destination
/// agent's stream, and the policy is broadcast to both shards. (Four
/// flows: with two, this seed lands an R1→R2 arrival on the nanosecond of
/// an R2 tx-complete — the one tie a cut and the one-queue run order
/// differently, see `pels_netsim::shard` — and the 20 ms reorder delay
/// then carries the swap into which ACK takes which draw.)
#[test]
fn control_fault_draws_do_not_see_the_partition() {
    let window = ChaosConfig {
        window: FaultWindow { from: SimTime::from_secs_f64(2.0), to: SimTime::from_secs_f64(3.5) },
        ..Default::default()
    };
    let faults = schedule_for(ChaosCase::FeedbackMangling, &window);
    assert_matches_serial_reference("feedback-mangling", &shared_dumbbell(4), 2, Some(&faults));
}
