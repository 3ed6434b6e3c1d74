//! The paper's Table 1 and Figs. 1–10, one function per row of
//! [`EXPERIMENTS`](crate::EXPERIMENTS). Every simulated row runs on the
//! paper's Fig. 6 dumbbell.

use crate::Bound::{Ge, Gt, Is, Le, Lt};
use crate::{simulate, Outcome};
use pels_analysis::montecarlo::{
    ideal_drop_pattern, random_drop_pattern, received_in, simulate_useful_fixed, useful_in,
};
use pels_analysis::stability::gamma_trajectory;
use pels_analysis::useful::{
    best_effort_utility, expected_useful_fixed, optimal_useful, useful_saturation,
};
use pels_core::color::Color;
use pels_core::scenario::{
    default_trace, pels_flows, to_best_effort, wideband_config, Scenario, ScenarioConfig,
};
use pels_fgs::packetize::FramePackets;
use pels_fgs::psnr::RdModel;
use pels_fgs::rd_scaling::{allocate_equal_quality, allocate_fixed, psnr_std_dev, FrameBudget};
use pels_fgs::scaling::{partition_enhancement, scale_to_rate};
use pels_fgs::trace_gen::{generate, TraceGenConfig};
use pels_netsim::disc::{Discipline, DropTail, QEntry, QueueLimit, StrictPriority, Wrr};
use pels_netsim::event::PacketSlot;
use pels_netsim::stats::TimeSeries;
use pels_netsim::time::SimTime;

/// Table 1 of the paper: expected number of useful packets per FGS frame
/// under Bernoulli loss — closed form (Eq. 2) vs Monte-Carlo simulation.
///
/// Paper values (H = 100): p = 1e-4 -> 99.49, p = 0.01 -> 62.76/62.78,
/// p = 0.1 -> 8.99.
pub fn table1() -> Outcome {
    let mut o = Outcome::with_csv("table1.csv", "H,p,simulated,model,paper_sim,paper_model");
    let h = 100;
    let paper = [(1e-4, 99.49, 99.49), (0.01, 62.78, 62.76), (0.1, 8.99, 8.99)];
    for (p, paper_sim, paper_model) in paper {
        let sim = simulate_useful_fixed(p, h, 200_000, 42);
        let model = expected_useful_fixed(p, h);
        o.line(format!("{h},{p},{:.4},{model:.4},{paper_sim},{paper_model}", sim.mean));
        let name = format!("p = {p}: |simulated − Eq. 2|");
        o.check(name, (sim.mean - model).abs(), Lt(5.0 * sim.std_error.max(0.01)));
    }
    o
}

/// Fig. 1 of the paper: scaling of MPEG-4 FGS using fixed-size (left) and
/// variable-size (right) frame truncation. The original is a diagram; this
/// row demonstrates the two scaling policies executably on a
/// variable-complexity trace and records what each transmits.
pub fn fig1() -> Outcome {
    let cfg = TraceGenConfig { n_frames: 12, cv: 0.35, smoothness: 0.6, ..Default::default() };
    let trace = generate(&cfg, 11);
    let model = RdModel::foreman_like(12, 11);
    let budgets: Vec<FrameBudget> = trace
        .iter()
        .map(|f| FrameBudget { frame: f.index, max_bytes: f.enhancement_bytes as u64 })
        .collect();

    // A 1.5 Mb/s stream at 10 fps = 18,750 B/frame; base is 10,500 B. The
    // 8,250 B of enhancement sit just under where the R-D model's gain
    // saturates (17.5 dB at ~9 kB), so the two policies can differ: any
    // more and both hit the cap on every frame.
    let per_frame_enh =
        scale_to_rate(trace.frame(0), 1_500_000.0, trace.fps).enhancement_bytes as u64;
    let total = per_frame_enh * 12;
    let fixed = allocate_fixed(&budgets, total);
    let rd = allocate_equal_quality(&model, &budgets, total);

    let mut o = Outcome::with_csv("fig1.csv", "frame,full_bytes,fixed_bytes,rd_bytes");
    for (i, f) in trace.iter().enumerate() {
        o.line(format!("{i},{},{},{}", f.enhancement_bytes, fixed[i], rd[i]));
    }
    let sd_fixed = psnr_std_dev(&model, &budgets, &fixed);
    o.check("R-D PSNR std dev (dB), vs fixed's", psnr_std_dev(&model, &budgets, &rd), Le(sd_fixed));
    let uniform = fixed.iter().filter(|&&b| b == per_frame_enh).count();
    o.check("fixed: frames at the per-frame share", uniform as f64, Is(12.0));
    o
}

/// Fig. 2 of the paper: the number of useful FGS packets per frame (left)
/// and the utility of received video (right), as functions of the frame
/// size H, for best-effort vs optimal preferential streaming at p = 0.1.
///
/// Shape targets: best-effort useful packets saturate at (1-p)/p = 9 while
/// the optimal scheme grows as H(1-p); best-effort utility decays ~1/(Hp)
/// while optimal utility is identically 1.
pub fn fig2() -> Outcome {
    let p = 0.1;
    let header = "H,useful_best_effort,useful_optimal,utility_best_effort,utility_optimal";
    let mut o = Outcome::with_csv("fig2.csv", header);
    for h in [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 3000] {
        let ey = expected_useful_fixed(p, h);
        let opt = optimal_useful(p, h);
        let u = best_effort_utility(p, h);
        o.line(format!("{h},{ey:.6},{opt:.6},{u:.6},1.0"));
    }

    // Shape assertions from Section 3.1.
    let off_saturation = (expected_useful_fixed(p, 3000) - useful_saturation(p)).abs();
    o.check("H = 3000: |E[Y] − (1-p)/p|", off_saturation, Lt(1e-6));
    o.check("H = 3000: best-effort utility", best_effort_utility(p, 3000), Lt(0.005));
    o
}

/// Fig. 3 of the paper: useful data in one enhancement frame under a
/// *random* loss pattern (left) vs the *ideal* preferential pattern (right)
/// with the same number of drops. Recorded as per-position drop maps, plus
/// the mean over many frames: under random loss only the prefix before the
/// first gap decodes (Eq. 2), while the ideal pattern keeps every received
/// packet useful.
pub fn fig3() -> Outcome {
    let h = 126; // the paper's packets-per-frame
    let p = 0.25;
    let random = random_drop_pattern(p, h, 7);
    let ideal = ideal_drop_pattern(h - received_in(&random), h);
    let mut o = Outcome::with_csv("fig3.csv", "position,random_lost,ideal_lost");
    for i in 0..h as usize {
        o.line(format!("{i},{},{}", random[i] as u8, ideal[i] as u8));
    }

    // Aggregate over many frames: the single-frame picture generalizes.
    let frames = 10_000;
    let useful: u64 =
        (0..frames).map(|seed| useful_in(&random_drop_pattern(p, h, 1000 + seed)) as u64).sum();
    let off_eq2 = (useful as f64 / frames as f64 - expected_useful_fixed(p, h)).abs();
    o.check("random: |mean useful packets − Eq. 2|", off_eq2, Lt(0.1));
    let wasted = received_in(&ideal) - useful_in(&ideal);
    o.check("ideal: received packets not useful", wasted as f64, Is(0.0));
    o
}

/// `G`, `Y` and `R` for the video classes, `I` for Internet traffic.
fn letters(classes: impl IntoIterator<Item = u8>) -> String {
    classes.into_iter().map(|c| ['G', 'Y', 'R'].get(usize::from(c)).unwrap_or(&'I')).collect()
}

/// Fig. 4 of the paper: the PELS router queue structure (left) and the
/// partitioning/coloring of the FGS layer (right). The original is a
/// diagram; this row demonstrates both executably: it colors a frame
/// with a real γ value, pushes an overload through the actual PELS
/// discipline, and records the service order and drop placement.
pub fn fig4() -> Outcome {
    // Right: one frame of the paper trace at 1.5 Mb/s and 10 fps, γ = 0.25.
    let trace = default_trace();
    let scaled = scale_to_rate(trace.frame(0), 1_500_000.0, trace.fps);
    let (yellow, red) = partition_enhancement(scaled.enhancement_bytes, 0.25);
    let plan = FramePackets::new(&scaled, yellow, red, 500);
    let color_map = letters(plan.iter().map(|p| Color::from(p.segment).class()));

    // Left: WRR{strict priority[G,Y,R] | FIFO}. Push an interleaved burst
    // (video colors + Internet) into the real discipline and dequeue:
    // service order shows strict priority inside the PELS queue and WRR
    // fairness against the Internet queue.
    let video = Box::new(StrictPriority::drop_tail_bands(3, QueueLimit::Packets(8)));
    let inet = Box::new(DropTail::new(QueueLimit::Packets(8)));
    let mut disc = Wrr::new(
        vec![(1, video as Box<dyn Discipline>), (1, inet as Box<dyn Discipline>)],
        |e: &QEntry| if e.class < 3 { 0 } else { 1 },
        500,
    );
    let mut dropped = Vec::new();
    let input = [2, 3, 1, 0, 2, 3, 1, 0, 2, 3, 1, 0, 2, 2, 2, 2, 2, 2, 2, 2];
    for (i, &c) in input.iter().enumerate() {
        disc.enqueue(QEntry::new(PacketSlot(i as u32), 500, c), SimTime::ZERO, &mut dropped);
    }
    let order: Vec<u8> =
        std::iter::from_fn(|| disc.dequeue(SimTime::ZERO)).map(|p| p.class).collect();
    let (arrivals, service) = (letters(input), letters(order.iter().copied()));
    let text = format!("frame coloring: {color_map}\narrivals: {arrivals}\nservice:  {service}\n");
    let mut o = Outcome::default();
    o.file("fig4.txt", text);

    // Invariants of the figure: greens precede yellows precede reds within
    // the video share, and overflow is confined to red.
    let video: Vec<u8> = order.into_iter().filter(|&c| c < 3).collect();
    let first = |class| video.iter().position(|&c| c == class).unwrap() as f64;
    let last_green = video.iter().rposition(|&c| c == 0).unwrap() as f64;
    o.check("video service: last green at, before first yellow", last_green, Lt(first(1)));
    o.check("video service: first yellow at, before first red", first(1), Lt(first(2)));
    let not_red = dropped.iter().filter(|p| p.class != 2).count();
    o.check("overflow drops outside red", not_red as f64, Is(0.0));
    o
}

/// Fig. 5 of the paper: trajectories of the γ controller (Eq. 4) under
/// heavy stationary loss p = 0.5 with p_thr = 0.75 — stable for σ = 0.5
/// (converges to γ* = p/p_thr ≈ 0.67), unstable for σ = 3 (the Lemma 2
/// boundary is σ = 2).
pub fn fig5() -> Outcome {
    let (p, p_thr, steps) = (0.5, 0.75, 40);
    let stable = gamma_trajectory(0.5, 0.5, p_thr, 1, steps, |_| p);
    let unstable = gamma_trajectory(0.5, 3.0, p_thr, 1, steps, |_| p);
    let mut o = Outcome::with_csv("fig5.csv", "k,sigma_0.5,sigma_3");
    for k in 0..=steps {
        o.line(format!("{k},{:.8},{:.6}", stable[k], unstable[k]));
    }

    let gamma_star = p / p_thr;
    let tail = &stable[stable.len() - stable.len() / 5..];
    let settled = tail.iter().map(|g| (g - gamma_star).abs()).fold(0.0, f64::max);
    o.check("σ = 0.5: |γ − γ*| over the last fifth", settled, Le(1e-4));
    let peak = unstable.iter().map(|g| g.abs()).fold(0.0, f64::max);
    o.check("σ = 3: largest |γ|", peak, Gt(10.0));
    o
}

/// Fig. 7 of the paper: evolution of γ (left) and the corresponding red
/// packet loss rate (right) under two different load levels, with σ = 0.5
/// and p_thr = 0.75.
///
/// Shape targets: γ first decays to γ_low = 0.05 while the flows probe for
/// bandwidth, then rises and stabilizes at γ* = p/p_thr once congestion
/// sets in; red loss stabilizes at p_thr = 75% at *both* load levels, so
/// yellow packets see (near-)zero loss.
pub fn fig7() -> Outcome {
    // Two load levels. With C_pels = 2 Mb/s, alpha = 20 kb/s, beta = 0.5,
    // Lemma 6 puts the total-rate loss at ~7.4% for 4 flows and ~13.8% for
    // 8 flows — the paper's "7%" and "14%" conditions.
    let [low, high] = [4, 8].map(|n| {
        simulate(ScenarioConfig { flows: pels_flows(&vec![0.0; n]), ..Default::default() }, 60.0)
    });
    let mut o = Outcome::default();
    o.series("fig7_gamma.csv", &[&low.source(0).gamma_series, &high.source(0).gamma_series]);
    let (r_low, r_high) = (low.router(), high.router());
    o.series("fig7_red_loss.csv", &[&r_low.red_loss_series, &r_high.red_loss_series]);
    o.series("fig7_fgs_loss.csv", &[&r_low.fgs_loss_series, &r_high.fgs_loss_series]);

    // Steady state (t > 30 s). Each bound is the worst of seeds 1-5 plus
    // their spread, which is 0: the PELS path draws no random number, so
    // every seed measures |γ − γ*| / γ* = 0.020028613835274028 (4 flows) and
    // 0.014231298094868405 (8 flows), |red loss − p_thr| =
    // 0.010115462240859019 and 0.02149501883304361, and yellow loss 0.
    let settled = |series: &TimeSeries| series.mean_after(30.0).unwrap_or(0.0);
    for (n, s, gamma_bound, red_bound) in [
        (4, &low, 0.020028613835274028, 0.010115462240859019),
        (8, &high, 0.014231298094868405, 0.02149501883304361),
    ] {
        let r = s.router();
        let gamma_star = settled(&r.fgs_loss_series) / 0.75;
        let gamma_off = (settled(&s.source(0).gamma_series) - gamma_star).abs() / gamma_star;
        o.check(format!("{n} flows: |γ − γ*| / γ*"), gamma_off, Le(gamma_bound));
        let red_off = (settled(&r.red_loss_series) - 0.75).abs();
        o.check(format!("{n} flows: |red loss − p_thr|"), red_off, Le(red_bound));
        o.check(format!("{n} flows: yellow loss"), settled(&r.yellow_loss_series), Le(0.0));
    }
    o
}

/// Fig. 8 of the paper: one-way delays of green (left) and yellow (right)
/// packets while two new flows join the system every 50 seconds at
/// 128 kb/s.
///
/// Shape targets: both stay small and flat throughout (paper: green mean
/// ~16 ms, yellow ~25 ms), unaffected by the growing red-queue congestion.
pub fn fig8() -> Outcome {
    let starts = [0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 150.0, 150.0, 200.0, 200.0];
    let s = simulate(ScenarioConfig { flows: pels_flows(&starts), ..Default::default() }, 250.0);
    let delays = &s.receiver(0).delays;
    let mut o = Outcome::default();
    o.series("fig8_delays.csv", &[&delays.series[0], &delays.series[1]]);

    let green = delays.by_class[0].mean() * 1e3;
    let yellow = delays.by_class[1].mean() * 1e3;
    o.check("green mean delay (ms)", green, Lt(50.0));
    o.check("yellow mean delay (ms)", yellow, Lt(80.0));
    o.check("yellow mean delay (ms), behind green", yellow, Gt(green));
    // Flat in time: last-window green delay within 3x of the first window's.
    let green_s = &delays.series[0].points;
    let first = green_s.iter().take(100).map(|&(_, v)| v).sum::<f64>() / 100.0;
    let last: Vec<f64> =
        green_s.iter().filter(|&&(t, _)| (225.0..250.0).contains(&t)).map(|&(_, v)| v).collect();
    let last_mean = last.iter().sum::<f64>() / last.len() as f64;
    let name = "green delay (s) in [225, 250) s, vs the first 100";
    o.check(name, last_mean, Lt(3.0 * first.max(0.005)));
    o
}

/// Fig. 9 of the paper.
///
/// Left: red packet delays under the Fig.-8 join workload — red delays are
/// orders of magnitude above green/yellow because the red queue is, by
/// design, the congestion sponge. (Deviation note: the paper's red delays
/// *grow* with each join; with our finite red buffer the full-queue delay
/// is `buffer / red-service-rate`, and the red service rate grows with the
/// aggregate probing surplus, so the staircase direction differs. See
/// EXPERIMENTS.md.)
///
/// Right: MKC convergence and fairness — F1 starts at 128 kb/s and claims
/// the whole 2 Mb/s PELS share in ~0.1 s; F2 joins at t = 10 s and both
/// settle, without oscillation, at C/N + alpha/beta = 1.04 Mb/s (Lemma 6).
pub fn fig9() -> Outcome {
    // Each bound is the worst of seeds 1-5 plus their spread, which is 0: the
    // PELS path draws no random number, so every seed measures red/yellow
    // delay 41.03674946179636, F1 and F2 off Lemma 6 by 0.001075878951300524
    // and 0.0023452605309912016, and t90 0.104432 s.
    let mut o = Outcome::default();
    let starts = [0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 150.0, 150.0, 200.0, 200.0];
    let s = simulate(ScenarioConfig { flows: pels_flows(&starts), ..Default::default() }, 250.0);
    let delays = &s.receiver(0).delays;
    o.series("fig9_red_delays.csv", &[&delays.series[2]]);
    let red_over_yellow = delays.by_class[2].mean() / delays.by_class[1].mean();
    o.check("mean red delay / mean yellow delay", red_over_yellow, Ge(41.03674946179636));

    let flows = pels_flows(&[0.0, 10.0]);
    let s = simulate(ScenarioConfig { flows, ..Default::default() }, 30.0);
    let (f1, f2) = (&s.source(0).rate_series, &s.source(1).rate_series);
    o.series("fig9_mkc_rates.csv", &[f1, f2]);
    // Lemma 6: C/N + α/β = 2000/2 + 20/0.5 = 1040 kb/s each.
    for (i, bound) in [0.001075878951300524, 0.0023452605309912016].into_iter().enumerate() {
        let off = (s.source(i).rate_bps() / 1e3 - 1_040.0).abs() / 1_040.0;
        o.check(format!("F{}: |final rate − Lemma 6| / Lemma 6", i + 1), off, Le(bound));
    }
    // F1 claims the link fast (paper: "at around 0.1 seconds").
    let t90 = f1.points.iter().find(|&&(_, v)| v > 0.9 * 2_040.0).map_or(f64::NAN, |&(t, _)| t);
    o.check("F1 reaches 90% of the solo rate at (s)", t90, Le(0.104432));
    o
}

const WARMUP_FRAMES: u64 = 100;
const FRAMES: u64 = 300;

/// The PSNR of each of receiver 0's frames after the warm-up.
fn psnr_of(s: &Scenario, model: &RdModel) -> Vec<f64> {
    let measured = WARMUP_FRAMES..WARMUP_FRAMES + FRAMES;
    let decoded = s.receiver(0).decode_all();
    let kept = decoded.iter().filter(|d| measured.contains(&d.frame));
    kept.map(|d| model.psnr(d.frame, d.enh_useful_bytes, d.base_ok)).collect()
}

/// One side of Fig. 10: `target_loss` FGS-layer loss, written to
/// `csv_name`, with the bound on the ratio of the gains.
fn fig10_side(o: &mut Outcome, target_loss: f64, label: &str, csv_name: &str, ratio_bound: f64) {
    let cfg = wideband_config(4, target_loss);
    let secs = 10.0 + (WARMUP_FRAMES + FRAMES) as f64 / 10.0;
    let model = RdModel::foreman_like(300, 42);
    let base: Vec<f64> = (0..FRAMES).map(|f| model.base_psnr(f + WARMUP_FRAMES)).collect();
    let pels = psnr_of(&simulate(cfg.clone(), secs), &model);
    let be = psnr_of(&simulate(to_best_effort(cfg), secs), &model);

    o.file(csv_name, "frame,base,best_effort,pels\n".to_string());
    for i in 0..FRAMES as usize {
        let at = |psnr: &[f64]| psnr.get(i).copied().unwrap_or(f64::NAN);
        o.line(format!("{i},{:.3},{:.3},{:.3}", at(&base), at(&be), at(&pels)));
    }

    // Shape assertions: PELS gain is a multiple of the best-effort gain and
    // PELS quality is much smoother.
    let mean = |psnr: &[f64]| psnr.iter().sum::<f64>() / psnr.len() as f64;
    let gain = |psnr: &[f64]| (mean(psnr) / mean(&base) - 1.0) * 100.0;
    let swing = |psnr: &[f64]| {
        let max = psnr.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        max - psnr.iter().fold(f64::INFINITY, |a, &b| a.min(b))
    };
    let ratio = gain(&pels) / gain(&be);
    o.check(format!("{label}: PELS gain / best-effort gain"), ratio, Ge(ratio_bound));
    let name = format!("{label}: PELS PSNR swing (dB), vs best-effort's");
    o.check(name, swing(&pels), Lt(swing(&be)));
    o.check(format!("{label}: PELS gain over base (%)"), gain(&pels), Ge(59.87267957092299));
}

/// Fig. 10 of the paper: PSNR of CIF Foreman reconstructed under ~10%
/// (left) and ~19% (right) FGS-layer packet loss — base layer only vs
/// best-effort streaming vs PELS.
///
/// Shape targets (paper): at 10% loss best-effort improves base PSNR by
/// ~24% while PELS improves it by ~60%; at 19% loss the gains are ~16% and
/// ~55%; best-effort PSNR fluctuates by up to 15 dB while PELS stays
/// smooth.
///
/// The paper decodes the real Foreman sequence offline; we substitute the
/// calibrated synthetic R-D model (DESIGN.md), applying the *exact*
/// per-frame loss maps produced by the packet simulation.
pub fn fig10() -> Outcome {
    // Each bound is the worst of seeds 1-5 less their spread. Only the
    // best-effort router draws random numbers, so the PELS gain is
    // 59.87267957092299 % on both sides at every seed (spread 0), while the
    // ratio of the gains is, left, 2.4055, 2.4297, 2.2601, 2.5133, 2.3612
    // (bound 2.2601 − 0.2531 = 2.007) and, right, 4.4402, 4.5208, 4.2199,
    // 3.9477, 4.8475 (bound 3.9477 − 0.8997 = 3.048).
    let mut o = Outcome::default();
    fig10_side(&mut o, 0.10, "left", "fig10_left.csv", 2.007);
    fig10_side(&mut o, 0.19, "right", "fig10_right.csv", 3.048);
    o
}
