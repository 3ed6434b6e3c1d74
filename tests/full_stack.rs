//! Integration tests spanning all crates: the full PELS stack (netsim +
//! fgs + core) exercised end to end, checking the paper's headline claims
//! and the engineering invariants that the unit tests cannot see.

use pels_core::gamma::GammaConfig;
use pels_core::mkc::MkcConfig;
use pels_core::receiver::PelsReceiver;
use pels_core::router::{AqmConfig, AqmRouter};
use pels_core::scenario::{
    pels_flows, to_best_effort, wideband_config, FlowSpec, Scenario, ScenarioConfig,
};
use pels_core::source::{CcSpec, PelsSource, SourceMode};
use pels_fgs::UtilityStats;
use pels_netsim::time::{Rate, SimDuration, SimTime};
use pels_topo::spec::{GeneratorSpec, TopoSpec};
use pels_topo::TopoScenario;

/// Best-effort comparator flows (uniform loss, no coloring) starting at the
/// given times (seconds).
fn best_effort_flows(starts_s: &[f64]) -> Vec<FlowSpec> {
    starts_s
        .iter()
        .map(|&s| FlowSpec {
            start_at: SimDuration::from_secs_f64(s),
            mode: SourceMode::BestEffort,
            ..Default::default()
        })
        .collect()
}

fn steady_utility(s: &Scenario, warmup_frames: u64) -> UtilityStats {
    let mut u = UtilityStats::new();
    for i in 0..s.ids.receivers.len() {
        for d in s.receiver(i).decode_all() {
            if d.frame >= warmup_frames {
                u.add(&d);
            }
        }
    }
    u
}

#[test]
fn headline_pels_beats_best_effort_by_an_order_of_magnitude() {
    // The paper's core claim (Sections 3-4): at H ~ 100-packet frames and
    // ~10% FGS loss, preferential streaming delivers ~10x the useful data.
    let cfg = wideband_config(4, 0.10);
    let t = SimTime::from_secs_f64(40.0);
    let mut pels = Scenario::build(cfg.clone());
    pels.run_until(t);
    let mut be = Scenario::build(to_best_effort(cfg));
    be.run_until(t);

    let pu = steady_utility(&pels, 100);
    let bu = steady_utility(&be, 100);
    assert!(pu.utility() > 0.95, "PELS utility {}", pu.utility());
    assert!(bu.utility() < 0.2, "best-effort utility {}", bu.utility());
    assert!(
        pu.utility() > 5.0 * bu.utility(),
        "expected ~10x: {} vs {}",
        pu.utility(),
        bu.utility()
    );
}

#[test]
fn full_scenario_is_bit_deterministic() {
    let run = |seed: u64| {
        let cfg =
            ScenarioConfig { seed, flows: pels_flows(&[0.0, 5.0, 10.0]), ..Default::default() };
        let mut s = Scenario::build(cfg);
        s.run_until(SimTime::from_secs_f64(20.0));
        (s.sim.events_processed(), serde_json::to_string(&s.report()).unwrap())
    };
    assert_eq!(run(3), run(3), "same seed, same run");

    // A pure-PELS run has no randomness on its fast path (pacing, MKC and
    // the priority queues are deterministic), so different seeds coincide.
    // Where randomness exists — the best-effort comparator's uniform
    // drops — seeds must matter:
    let run_be = |seed: u64| {
        let cfg = to_best_effort(ScenarioConfig {
            seed,
            flows: pels_flows(&[0.0, 5.0, 10.0]),
            ..Default::default()
        });
        let mut s = Scenario::build(cfg);
        s.run_until(SimTime::from_secs_f64(20.0));
        s.sim.events_processed()
    };
    assert_eq!(run_be(3), run_be(3));
    assert_ne!(run_be(3), run_be(4), "seeds drive the random-drop comparator");
}

#[test]
fn eq6_utility_bound_holds_in_the_packet_simulator() {
    // Lemma 4 + Eq. 6: with red loss pinned at p_thr, utility is at least
    // (1 - p/p_thr)/(1 - p) for the measured FGS loss p.
    for n in [4usize, 8] {
        let cfg = ScenarioConfig { flows: pels_flows(&vec![0.0; n]), ..Default::default() };
        let mut s = Scenario::build(cfg);
        s.run_until(SimTime::from_secs_f64(40.0));
        let p = s.router().fgs_loss_series.mean_after(20.0).unwrap();
        let bound = pels_analysis::useful::pels_utility_lower_bound(p.min(0.99), 0.75);
        let u = steady_utility(&s, 100).utility();
        assert!(
            u >= bound - 0.03,
            "{n} flows: measured utility {u} violates Eq. 6 bound {bound} (p = {p})"
        );
    }
}

#[test]
fn lemma6_rate_is_independent_of_rtt_heterogeneity() {
    // Two flows with very different RTTs (one gets +30 ms each way on its
    // access link) still converge to the same stationary rate — unlike
    // TCP/AIMD, MKC does not penalize long-RTT flows (paper Section 5.1).
    let mut flows = pels_flows(&[0.0, 0.0]);
    flows[1].extra_delay = SimDuration::from_millis(30);
    let cfg =
        ScenarioConfig { flows, access_delay: SimDuration::from_millis(1), ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(40.0));
    let r0 = s.source(0).rate_series.mean_after(25.0).unwrap();
    let r1 = s.source(1).rate_series.mean_after(25.0).unwrap();
    assert!((r0 - r1).abs() < 0.07 * r0, "fair despite 5x RTT gap: {r0} vs {r1}");
    assert!((r0 - 1_040.0).abs() < 0.07 * 1_040.0, "Lemma 6: {r0}");
    // Sanity: the delay really differs (green one-way delay gap ~30 ms).
    let d0 = s.receiver(0).delays.by_class[0].mean();
    let d1 = s.receiver(1).delays.by_class[0].mean();
    assert!(d1 - d0 > 0.025, "delay heterogeneity present: {d0} vs {d1}");
}

#[test]
fn green_never_drops_under_pels_even_at_extreme_load() {
    let cfg = ScenarioConfig { flows: pels_flows(&[0.0; 12]), ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(30.0));
    let report = s.report();
    assert_eq!(report.bottleneck_drops_by_class[0], 0, "green is sacrosanct");
    // All flows still decode their base layers.
    let u = steady_utility(&s, 50);
    assert_eq!(u.base_ok_frames, u.frames, "every steady-state frame has an intact base");
}

#[test]
fn tcp_share_is_respected_in_both_directions() {
    // WRR isolation: video load must not starve TCP, and vice versa.
    let cfg = ScenarioConfig { flows: pels_flows(&[0.0; 8]), n_tcp: 2, ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(30.0));
    let report = s.report();
    // Internet share is 2 Mb/s = 250 kB/s = 250 packets/s of 1000 B.
    // Expect at least 60% of that net of TCP overheads.
    assert!(report.tcp_delivered > 4_500, "tcp starved: {}", report.tcp_delivered);
    // And the video side still meets its Lemma 6 share.
    let r = s.source(0).rate_series.mean_after(20.0).unwrap();
    assert!((r - 290.0).abs() < 40.0, "video share with 8 flows: {r}");
}

#[test]
fn best_effort_flows_match_section3_model() {
    // The uniform-drop comparator should reproduce Eq. 2/3 quantitatively:
    // measured per-frame useful packets == expected_useful_fixed(p, H).
    let mut cfg = wideband_config(4, 0.10);
    cfg.aqm.mode = pels_core::router::QueueMode::BestEffortUniform;
    cfg.flows = best_effort_flows(&[0.0; 4])
        .into_iter()
        .map(|f| FlowSpec { cc: cfg.flows[0].cc, ..f })
        .collect();
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(40.0));

    let u = steady_utility(&s, 100);
    let p = u.loss_rate();
    // Mean transmitted enhancement packets per frame.
    let h = (u.enh_sent as f64 / u.frames as f64).round() as u32;
    let expect = pels_analysis::useful::expected_useful_fixed(p, h);
    let measured = u.mean_useful_per_frame();
    assert!(
        (measured - expect).abs() < 0.25 * expect,
        "Eq. 2: measured {measured:.2} vs model {expect:.2} (p = {p:.3}, H = {h})"
    );
}

/// The two-AQM-hop chain with two flows and per-step series retained.
fn tandem(
    rate_a_mbps: f64,
    rate_b_mbps: f64,
    background: Option<(Rate, SimDuration)>,
) -> TopoScenario {
    let model = pels_repro::two_hop_chain(
        Rate::from_mbps(rate_a_mbps),
        Rate::from_mbps(rate_b_mbps),
        2,
        background,
    );
    let mut spec =
        TopoSpec::new(GeneratorSpec::ParkingLot { segments: 2, cross_per_segment: None });
    spec.keep_series = Some(true);
    TopoScenario::try_from_model(model, spec).expect("valid chain")
}

fn hop_loss(t: &TopoScenario, router: usize) -> f64 {
    t.sim.agent::<AqmRouter>(t.ids.routers[router]).estimator().loss()
}

fn mean_rate_after(t: &TopoScenario, flow: usize, secs: f64) -> f64 {
    t.sim.agent::<PelsSource>(t.ids.sources[flow]).rate_series.mean_after(secs).unwrap()
}

#[test]
fn tandem_follows_bottleneck_shift() {
    // Start with B tighter (3 Mb/s). The source must track B's feedback;
    // both AQM routers stamp, max-loss override decides.
    let mut t = tandem(4.0, 3.0, None);
    t.run_until(SimTime::from_secs_f64(25.0));
    assert!(hop_loss(&t, 1) > hop_loss(&t, 0), "B is the binding constraint");
    // A's share exceeds what B lets through: it reports spare capacity.
    assert!(hop_loss(&t, 1) > 0.0 && hop_loss(&t, 0) < 0.0);
    let r = mean_rate_after(&t, 0, 15.0);
    assert!((r - 790.0).abs() < 0.1 * 790.0, "rate follows B: {r}");
    // Utility stays high across two AQM hops once past the join transient
    // (frames 0..50 cover the initial MKC ramp, before the γ cushion forms).
    let mut total = UtilityStats::new();
    for &id in &t.ids.receivers {
        for d in t.sim.agent::<PelsReceiver>(id).decode_all() {
            if d.frame >= 50 {
                total.add(&d);
            }
        }
    }
    assert!(total.utility() > 0.9, "utility {}", total.utility());
}

#[test]
fn tandem_hands_control_to_a_bottleneck_that_forms_mid_run() {
    // A starts tighter (3 Mb/s vs 4 Mb/s). At t = 25 s a 1.5 Mb/s yellow
    // CBR floods B's PELS share: B now sees 1.5 + 1.5 = 3.0 Mb/s against a
    // 2 Mb/s share, becomes the max-loss router, and must push the flows
    // down until video + background fits B.
    let background = (Rate::from_mbps(1.5), SimDuration::from_secs(25));
    let mut t = tandem(3.0, 4.0, Some(background));
    t.run_until(SimTime::from_secs_f64(20.0));
    let r_phase1 = mean_rate_after(&t, 0, 12.0);
    assert!((r_phase1 - 790.0).abs() < 0.1 * 790.0, "phase 1, A binds: {r_phase1}");
    assert!(hop_loss(&t, 0) > hop_loss(&t, 1));

    t.run_until(SimTime::from_secs_f64(60.0));
    let r_phase2 = mean_rate_after(&t, 0, 45.0);
    assert!(
        r_phase2 < 0.6 * r_phase1,
        "flows must yield to the new bottleneck: {r_phase2} vs {r_phase1}"
    );
    assert!(hop_loss(&t, 1) > hop_loss(&t, 0), "B is now the binding constraint");
}

#[test]
fn controllers_with_custom_gains_flow_through_the_stack() {
    // Configuration plumbing: per-flow gains reach the controllers.
    let flow = FlowSpec {
        cc: CcSpec::Mkc(MkcConfig { alpha_bps: 40_000.0, ..Default::default() }),
        gamma: GammaConfig { p_thr: 0.9, ..Default::default() },
        ..Default::default()
    };
    let cfg =
        ScenarioConfig { flows: vec![flow; 2], aqm: AqmConfig::default(), ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(30.0));
    // Lemma 6 with alpha = 40k: r* = 1000 + 80 = 1080 kb/s.
    let r = s.source(0).rate_series.mean_after(20.0).unwrap();
    assert!((r - 1_080.0).abs() < 0.05 * 1_080.0, "alpha plumbed: {r}");
    // gamma* = p/p_thr with the larger threshold is smaller.
    let p = s.router().fgs_loss_series.mean_after(20.0).unwrap();
    let g = s.source(0).gamma_series.mean_after(20.0).unwrap();
    assert!((g - p / 0.9).abs() < 0.3 * (p / 0.9), "p_thr plumbed: gamma {g} vs {}", p / 0.9);
}

#[test]
fn arq_recovers_losses_when_rtt_is_small() {
    // End-to-end ARQ sanity: with a small FIFO (low queueing delay) and a
    // generous deadline, NACK/retransmit recovers most gaps and utility
    // improves over no-ARQ best effort.
    use pels_core::receiver::NackConfig;
    use pels_core::router::QueueMode;
    use pels_core::source::ArqConfig;

    let base_cfg = || {
        let mut cfg = wideband_config(4, 0.10);
        cfg.aqm.mode = QueueMode::Fifo;
        cfg.aqm.best_effort_limit = 100;
        for f in &mut cfg.flows {
            f.mode = SourceMode::BestEffort;
        }
        cfg
    };
    let mut with_arq = base_cfg();
    for f in &mut with_arq.flows {
        f.arq = Some(ArqConfig::default());
    }
    with_arq.nack = Some(NackConfig::default());

    let t = SimTime::from_secs_f64(30.0);
    let mut plain = Scenario::build(base_cfg());
    plain.run_until(t);
    let mut arq = Scenario::build(with_arq);
    arq.run_until(t);

    let pu = steady_utility(&plain, 100).utility();
    let au = steady_utility(&arq, 100).utility();
    assert!(au > pu + 0.1, "ARQ should help here: {au} vs {pu}");
    assert!(arq.source(0).retransmissions > 100, "retransmissions flowed");
    assert!(arq.receiver(0).nacks_sent() > 100, "nacks flowed");
}

#[test]
fn conclusions_hold_under_the_rd_quality_model() {
    // The Fig.-10 conclusion in PSNR: with quality from the smooth R-D map,
    // PELS beats best-effort by a wide margin on the same loss maps.
    use pels_fgs::psnr::RdModel;

    let cfg = wideband_config(4, 0.10);
    let t = SimTime::from_secs_f64(40.0);
    let mut pels = Scenario::build(cfg.clone());
    pels.run_until(t);
    let mut be = Scenario::build(to_best_effort(cfg));
    be.run_until(t);

    let model = RdModel::foreman_like(300, 42);
    let mean_gain = |s: &Scenario| -> f64 {
        let mut sum = 0.0;
        let mut base = 0.0;
        for d in s.receiver(0).decode_all() {
            if d.frame < 100 {
                continue;
            }
            sum += model.psnr(d.frame, d.enh_useful_bytes, d.base_ok);
            base += model.base_psnr(d.frame);
        }
        sum / base - 1.0
    };

    let g_pels = mean_gain(&pels);
    let g_be = mean_gain(&be);
    assert!(g_pels > 1.5 * g_be, "PELS gain {g_pels:.3} should dominate best-effort {g_be:.3}");
    assert!(g_pels > 0.2, "PELS gain {g_pels:.3} is substantial");
}

#[test]
fn router_backlog_series_shows_red_queue_pressure() {
    // The router samples its video-queue backlog each feedback tick; under
    // sustained congestion the red band holds a persistent standing queue
    // while the total stays bounded.
    let cfg = ScenarioConfig { flows: pels_flows(&[0.0; 4]), ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(20.0));
    let r = s.router();
    assert!(r.backlog_series.len() > 500, "sampled every tick");
    let red_mean = r.red_backlog_series.mean_after(10.0).unwrap();
    let total_mean = r.backlog_series.mean_after(10.0).unwrap();
    assert!(red_mean > 5.0, "red standing queue: {red_mean}");
    assert!(total_mean >= red_mean, "total includes red");
    assert!(total_mean < 500.0, "bounded backlog: {total_mean}");
}
