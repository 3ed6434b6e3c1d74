//! Byte-identity as a gate of its own (DESIGN.md, "Reserved sequence
//! numbers").
//!
//! Every report is a pure function of (config, seed), and an engine change
//! that claims to leave behaviour alone must leave every byte of it alone.
//! The tracked `results/` CSVs show that only after `run_all`; these tests
//! pin the FNV-1a digest of the serialized report for a handful of small
//! configurations — the shared PELS dumbbell at 1 and 2 workers, the
//! chained layout, best-effort mode, a dumbbell with every per-flow and
//! per-run option set (both layouts), a run under a `FaultSchedule`, one
//! with ACKs mangled as they cross the cut, and a generated topology — so
//! `cargo test` alone says whether a byte moved.
//!
//! The values were recorded on the commit *before* output ports stopped
//! scheduling idle tx-completes (the mangled-ACK run: before cross-shard
//! arrivals stopped going through the heap; the every-option run: before
//! the dumbbell became a topology model). A digest that changes is a
//! behaviour change: explain it in EXPERIMENTS.md and re-record, or fix
//! the code.

use pels_core::receiver::NackConfig;
use pels_core::scenario::{
    chained_proportional_config, pels_flows, to_best_effort, FlowSpec, Layout, Scenario,
    ScenarioConfig,
};
use pels_core::source::{ArqConfig, CcSpec, SourceMode};
use pels_core::GammaConfig;
use pels_netsim::faults::{ControlFaultPolicy, FaultAction, FaultSchedule};
use pels_netsim::packet::AgentId;
use pels_netsim::time::{SimDuration, SimTime};
use pels_topo::{TopoScenario, TopoSpec};

/// FNV-1a 64-bit, as `benchmark/`'s `report_digest` computes it.
fn digest(serialized: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in serialized.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

fn shared_dumbbell(n: usize) -> ScenarioConfig {
    ScenarioConfig { flows: pels_flows(&vec![0.0; n]), keep_series: false, ..Default::default() }
}

fn scenario_digest(
    cfg: ScenarioConfig,
    workers: usize,
    secs: f64,
    faults: Option<&FaultSchedule>,
) -> String {
    let mut s = Scenario::build(cfg);
    s.set_workers(workers);
    if let Some(schedule) = faults {
        s.sim.install_faults(schedule).expect("valid schedule");
    }
    s.run_until(SimTime::from_secs_f64(secs));
    digest(&serde_json::to_string(&s.report()).expect("report serializes"))
}

#[test]
fn shared_dumbbell_digest_is_pinned_at_one_and_two_workers() {
    for workers in [1, 2] {
        assert_eq!(
            scenario_digest(shared_dumbbell(16), workers, 8.0, None),
            "20a713565dfda98e",
            "workers={workers}"
        );
    }
}

#[test]
fn chained_digest_is_pinned() {
    assert_eq!(scenario_digest(chained_proportional_config(8), 2, 8.0, None), "45ff602d0edc8703");
}

/// A small dumbbell that sets every per-run and per-flow option the
/// network builder carries: an access-delay offset, ARQ with receiver
/// NACKs, a playout deadline, AIMD, TFRC and best-effort flows beside MKC
/// ones, non-default γ gains and three TCP flows (in a chain, flow ids
/// `1000 + i·3 + j`).
fn every_option(layout: Layout) -> ScenarioConfig {
    let arq = Some(ArqConfig {});
    let flows = vec![
        FlowSpec { arq, ..Default::default() },
        FlowSpec { arq, extra_delay: SimDuration::from_millis(15), ..Default::default() },
        FlowSpec { cc: CcSpec::Aimd, start_at: SimDuration::from_millis(40), ..Default::default() },
        FlowSpec {
            cc: CcSpec::Tfrc,
            gamma: GammaConfig { sigma: 0.3, p_thr: 0.8 },
            ..Default::default()
        },
        FlowSpec { mode: SourceMode::BestEffort, ..Default::default() },
    ];
    ScenarioConfig {
        flows,
        n_tcp: 3,
        keep_series: false,
        playout_deadline: Some(SimDuration::from_millis(150)),
        nack: Some(NackConfig {}),
        layout,
        ..Default::default()
    }
}

#[test]
fn every_option_digest_is_pinned_on_both_layouts() {
    for workers in [1, 2] {
        assert_eq!(
            scenario_digest(every_option(Layout::SharedDumbbell), workers, 6.0, None),
            "96f14971edc91209",
            "shared, workers={workers}"
        );
    }
    assert_eq!(
        scenario_digest(every_option(Layout::ChainPerFlow), 2, 6.0, None),
        "8a5992a11f18fd92"
    );
}

#[test]
fn best_effort_digest_is_pinned() {
    assert_eq!(
        scenario_digest(to_best_effort(shared_dumbbell(8)), 2, 8.0, None),
        "5090d98659383b8a"
    );
}

/// The bottleneck port is cut mid-transmission, restored, flushed and
/// degraded: every `Port` path besides plain sending (`set_link_up`,
/// `restart`, `flush`, `set_rate_factor`) shapes this report.
#[test]
fn faulted_run_digest_is_pinned() {
    let r1 = AgentId(0); // scenario layout: agent 0 is the AQM bottleneck
    let at = SimTime::from_secs_f64;
    let mut faults = FaultSchedule::new();
    faults
        .link_outage(r1, 0, at(2.0), at(2.6))
        .flush_at(r1, at(3.5))
        .degraded_window(r1, 0, 0.35, at(4.5), at(6.0))
        .push(at(7.0), r1, FaultAction::LinkDown { port: 0 })
        .push(at(7.0), r1, FaultAction::LinkUp { port: 0 });
    assert_eq!(scenario_digest(shared_dumbbell(8), 2, 9.0, Some(&faults)), "71cccf57ef0578f7");
}

/// ACKs are dropped, duplicated and reordered as they arrive across the
/// cut: every ACK reaches the source's shard through the barrier exchange,
/// and the control-fault policy draws once per arrival in pop order, so
/// this report moves if the exchange hands the policy its ACKs in any other
/// order. Recorded on the commit before cross-shard arrivals stopped going
/// through the heap (`pels_netsim::event`, "The cross-shard lane").
#[test]
fn control_faults_across_the_cut_digest_is_pinned() {
    let at = SimTime::from_secs_f64;
    let policy = ControlFaultPolicy {
        drop: 0.2,
        duplicate: 0.1,
        reorder: 0.3,
        reorder_delay: SimDuration::from_millis(20),
    };
    let mut faults = FaultSchedule::new();
    faults.control_fault_window(policy, at(2.0), at(5.0));
    let mut s = Scenario::build(shared_dumbbell(8));
    s.set_workers(2);
    s.sim.install_faults(&faults).expect("valid schedule");
    s.run_until(at(8.0));
    let stats = s.sim.fault_stats();
    assert!(
        stats.control_dropped > 100
            && stats.control_duplicated > 100
            && stats.control_reordered > 100,
        "the policy must act on the ACKs crossing the cut: {stats:?}"
    );
    assert_eq!(
        digest(&serde_json::to_string(&s.report()).expect("report serializes")),
        "6b8b762df007d935"
    );
}

/// `TopoReport.events` is the one field of any report that counts events,
/// and idle completions are no longer events; everything else — rates,
/// deviations, utilities, TCP deliveries over multi-hop WRR routers — is
/// pinned with that field zeroed.
#[test]
fn topo_digest_is_pinned_with_events_zeroed() {
    let spec = TopoSpec::from_shorthand("waxman:routers=12,flows=8,seed=1").expect("valid spec");
    let mut sc = TopoScenario::try_build(spec).unwrap();
    sc.set_workers(2);
    sc.run_until(SimTime::from_secs_f64(5.0));
    let mut report = sc.report();
    assert!(report.events > 0);
    report.events = 0;
    assert_eq!(
        digest(&serde_json::to_string(&report).expect("report serializes")),
        "6e0f2dd91a6f578e"
    );
}
