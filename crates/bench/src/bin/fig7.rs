//! Fig. 7 of the paper: evolution of γ (left) and the corresponding red
//! packet loss rate (right) under two different load levels, with σ = 0.5
//! and p_thr = 0.75.
//!
//! Shape targets: γ first decays to γ_low = 0.05 while the flows probe for
//! bandwidth, then rises and stabilizes at γ* = p/p_thr once congestion
//! sets in; red loss stabilizes at p_thr = 75% at *both* load levels, so
//! yellow packets see (near-)zero loss.

use pels_bench::{downsample, env_dir, fmt, print_table, results_dir, write_series};
use pels_core::scenario::{pels_flows, Scenario, ScenarioConfig};
use pels_netsim::stats::TimeSeries;
use pels_netsim::time::SimTime;

struct LoadResult {
    label: String,
    gamma: TimeSeries,
    red_loss: TimeSeries,
    fgs_loss: TimeSeries,
    mean_fgs_loss: f64,
    mean_gamma: f64,
    mean_red_loss: f64,
    yellow_loss: f64,
}

fn run(n_flows: usize) -> LoadResult {
    let cfg = ScenarioConfig {
        flows: pels_flows(&vec![0.0; n_flows]),
        keep_series: true,
        ..Default::default()
    };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(60.0));
    let gamma = s.source(0).gamma_series.clone();
    let router = s.router();
    let red_loss = router.red_loss_series.clone();
    let fgs_loss = router.fgs_loss_series.clone();
    let yellow = &router.yellow_loss_series;
    let settle = 30.0;
    LoadResult {
        label: format!("{n_flows} flows"),
        mean_fgs_loss: fgs_loss.mean_after(settle).unwrap_or(0.0),
        mean_gamma: gamma.mean_after(settle).unwrap_or(0.0),
        mean_red_loss: red_loss.mean_after(settle).unwrap_or(0.0),
        yellow_loss: yellow.mean_after(settle).unwrap_or(0.0),
        gamma,
        red_loss,
        fgs_loss,
    }
}

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Fig. 7: gamma evolution (left) and red loss (right) ==\n");
    // Two load levels. With C_pels = 2 Mb/s, alpha = 20 kb/s, beta = 0.5,
    // Lemma 6 puts the total-rate loss at ~7.4% for 4 flows and ~13.8% for
    // 8 flows — the paper's "7%" and "14%" conditions.
    let low = run(4);
    let high = run(8);

    println!("gamma(t) (downsampled; full series in results/fig7_gamma.csv):");
    let mut rows = Vec::new();
    for (i, (t, g)) in downsample(&low.gamma, 16).iter().enumerate() {
        let hi = downsample(&high.gamma, 16)[i];
        rows.push(vec![fmt(*t, 1), fmt(*g, 3), fmt(hi.1, 3)]);
    }
    print_table(&["t(s)", "gamma (4 flows)", "gamma (8 flows)"], &rows);

    println!("\nsteady state (t > 30 s):");
    let mut rows = Vec::new();
    for r in [&low, &high] {
        let gamma_star = r.mean_fgs_loss / 0.75;
        rows.push(vec![
            r.label.clone(),
            fmt(r.mean_fgs_loss, 3),
            fmt(r.mean_gamma, 3),
            fmt(gamma_star, 3),
            fmt(r.mean_red_loss, 3),
            fmt(r.yellow_loss, 4),
        ]);
    }
    print_table(
        &["load", "FGS loss p", "gamma", "gamma*=p/p_thr", "red loss", "yellow loss"],
        &rows,
    );

    write_series(&out, "fig7_gamma.csv", &[&low.gamma, &high.gamma]);
    write_series(&out, "fig7_red_loss.csv", &[&low.red_loss, &high.red_loss]);
    write_series(&out, "fig7_fgs_loss.csv", &[&low.fgs_loss, &high.fgs_loss]);

    for r in [&low, &high] {
        let gamma_star = r.mean_fgs_loss / 0.75;
        assert!(
            (r.mean_gamma - gamma_star).abs() < 0.25 * gamma_star,
            "{}: gamma {} vs gamma* {}",
            r.label,
            r.mean_gamma,
            gamma_star
        );
        assert!(
            (r.mean_red_loss - 0.75).abs() < 0.15,
            "{}: red loss {} should stabilize near p_thr = 0.75",
            r.label,
            r.mean_red_loss
        );
        assert!(r.yellow_loss < 0.02, "{}: yellow stays protected", r.label);
    }
    println!(
        "\ngamma tracks p/p_thr at both load levels; red loss pins to p_thr = 0.75, \
         so all overload lands on red and yellow stays clean — the paper's Fig. 7."
    );
}
