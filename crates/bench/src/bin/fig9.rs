//! Fig. 9 of the paper.
//!
//! Left: red packet delays under the Fig.-8 join workload — red delays are
//! orders of magnitude above green/yellow because the red queue is, by
//! design, the congestion sponge. (Deviation note: the paper's red delays
//! *grow* with each join; with our finite red buffer the full-queue delay
//! is `buffer / red-service-rate`, and the red service rate grows with the
//! aggregate probing surplus, so the staircase direction differs. See
//! EXPERIMENTS.md.)
//!
//! Right: MKC convergence and fairness — F1 starts at 128 kb/s and claims
//! the whole 2 Mb/s PELS share in ~0.1 s; F2 joins at t = 10 s and both
//! settle, without oscillation, at C/N + alpha/beta = 1.04 Mb/s (Lemma 6).

use pels_bench::{downsample, env_dir, fmt, print_table, results_dir, write_series};
use pels_core::scenario::{pels_flows, Scenario, ScenarioConfig};
use pels_netsim::time::SimTime;
use std::path::Path;

fn red_delays(out: &Path) {
    println!("-- Fig. 9 (left): red packet delays, joins every 50 s --\n");
    let starts = [0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 150.0, 150.0, 200.0, 200.0];
    let cfg =
        ScenarioConfig { flows: pels_flows(&starts), keep_series: true, ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(250.0));
    let delays = &s.receiver(0).delays;
    let red_series = &delays.series[2];

    let mut rows = Vec::new();
    for w in 0..5 {
        let lo = w as f64 * 50.0;
        let hi = lo + 50.0;
        let vals: Vec<f64> = red_series
            .points
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, v)| v)
            .collect();
        let mean =
            if vals.is_empty() { f64::NAN } else { vals.iter().sum::<f64>() / vals.len() as f64 };
        let active = starts.iter().filter(|&&st| st < hi).count();
        rows.push(vec![format!("[{lo:>3.0},{hi:>3.0})"), active.to_string(), fmt(mean * 1e3, 0)]);
    }
    print_table(&["window(s)", "flows", "red delay (ms)"], &rows);
    let (red, yellow) = (delays.by_class[2].mean() * 1e3, delays.by_class[1].mean() * 1e3);
    println!("\nmean red delay {red:.0} ms vs yellow {yellow:.1} ms ({:.0}x)", red / yellow);
    write_series(out, "fig9_red_delays.csv", &[red_series]);
    assert!(red > 10.0 * yellow, "red delays dominate by an order of magnitude");
}

fn mkc_convergence(out: &Path) {
    println!("\n-- Fig. 9 (right): MKC convergence and fairness --\n");
    let cfg =
        ScenarioConfig { flows: pels_flows(&[0.0, 10.0]), keep_series: true, ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(30.0));

    let (f1, f2) = (&s.source(0).rate_series, &s.source(1).rate_series);
    let mut rows = Vec::new();
    for (t, v) in downsample(f1, 20) {
        let v2 =
            f2.points.iter().take_while(|&&(pt, _)| pt <= t).last().map(|&(_, v)| v).unwrap_or(0.0);
        rows.push(vec![fmt(t, 2), fmt(v, 0), fmt(v2, 0)]);
    }
    print_table(&["t(s)", "F1 (kb/s)", "F2 (kb/s)"], &rows);
    write_series(out, "fig9_mkc_rates.csv", &[f1, f2]);

    let r1 = s.source(0).rate_bps() / 1e3;
    let r2 = s.source(1).rate_bps() / 1e3;
    println!("\nfinal rates: F1 = {r1:.0} kb/s, F2 = {r2:.0} kb/s (Lemma 6: 1040 each)");
    assert!((r1 - 1_040.0).abs() < 0.06 * 1_040.0);
    assert!((r2 - 1_040.0).abs() < 0.06 * 1_040.0);
    // F1 claimed the link fast (paper: "at around 0.1 seconds").
    let t90 = f1
        .points
        .iter()
        .find(|&&(_, v)| v > 0.9 * 2_040.0)
        .map(|&(t, _)| t)
        .expect("F1 reaches the single-flow rate");
    println!("F1 reached 90% of the solo rate at t = {t90:.2} s");
    assert!(t90 < 0.5, "exponential claim of spare bandwidth");
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Fig. 9: red delays (left); MKC convergence (right) ==\n");
    red_delays(&out);
    mkc_convergence(&out);
}
