//! Fig. 8 of the paper: one-way delays of green (left) and yellow (right)
//! packets while two new flows join the system every 50 seconds at
//! 128 kb/s.
//!
//! Shape targets: both stay small and flat throughout (paper: green mean
//! ~16 ms, yellow ~25 ms), unaffected by the growing red-queue congestion.

use pels_bench::{env_dir, fmt, print_table, results_dir, write_series};
use pels_core::scenario::{pels_flows, Scenario, ScenarioConfig};
use pels_netsim::time::SimTime;

fn main() {
    let out = results_dir(env_dir("PELS_RESULTS_DIR").as_deref());
    println!("== Fig. 8: green and yellow packet delays (joins every 50 s) ==\n");
    let starts = [0.0, 0.0, 50.0, 50.0, 100.0, 100.0, 150.0, 150.0, 200.0, 200.0];
    let cfg = ScenarioConfig { flows: pels_flows(&starts), ..Default::default() };
    let mut s = Scenario::build(cfg);
    s.run_until(SimTime::from_secs_f64(250.0));

    // Per-epoch mean delays of flow 0 in 25-second buckets.
    let bucket = |series: &pels_netsim::stats::TimeSeries, lo: f64, hi: f64| -> Option<f64> {
        let vals: Vec<f64> =
            series.points.iter().filter(|&&(t, _)| t >= lo && t < hi).map(|&(_, v)| v).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };

    let rx = s.receiver(0);
    let mut rows = Vec::new();
    for w in 0..10 {
        let lo = w as f64 * 25.0;
        let hi = lo + 25.0;
        let g = bucket(&rx.delays.series[0], lo, hi).unwrap_or(f64::NAN);
        let y = bucket(&rx.delays.series[1], lo, hi).unwrap_or(f64::NAN);
        let active = starts.iter().filter(|&&st| st < hi).count();
        rows.push(vec![
            format!("[{lo:>3.0},{hi:>3.0})"),
            active.to_string(),
            fmt(g * 1e3, 1),
            fmt(y * 1e3, 1),
        ]);
    }
    print_table(&["window(s)", "flows", "green delay (ms)", "yellow delay (ms)"], &rows);

    let green_mean = rx.delays.by_class[0].mean() * 1e3;
    let yellow_mean = rx.delays.by_class[1].mean() * 1e3;
    println!("\noverall means: green {green_mean:.1} ms, yellow {yellow_mean:.1} ms (paper: ~16 / ~25 ms)");

    write_series(&out, "fig8_delays.csv", &[&rx.delays.series[0], &rx.delays.series[1]]);

    assert!(green_mean < 50.0, "green delays stay small: {green_mean}");
    assert!(yellow_mean < 80.0, "yellow delays stay small: {yellow_mean}");
    assert!(yellow_mean > green_mean, "yellow waits behind green");
    // Flat in time: last-window green delay within 3x of the first window's.
    let first = rx.delays.series[0].points.iter().take(100).map(|&(_, v)| v).sum::<f64>() / 100.0;
    let lastw = bucket(&rx.delays.series[0], 225.0, 250.0).unwrap();
    assert!(lastw < 3.0 * first.max(0.005), "green delay stays flat under load");
    println!("green/yellow service is insulated from the red-queue congestion.");
}
